package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"finbench"
)

// Binary columnar bulk format. The request frame carries the SOA layout
// directly — length-prefixed float64 columns — so a mega-batch client
// skips JSON entirely and the server prices straight out of the frame.
// Closed-form only: the frame has no method field. All integers are
// little-endian.
//
// Request (Content-Type application/x-finbench-columnar):
//
//	offset size  field
//	0      4     magic "FBC1"
//	4      1     flags: bit0 = type column present, bit1 = style column present
//	5      4     deadline_ms (uint32; 0 = server maximum)
//	9      4     n = option count (uint32)
//	13     8n    spots (float64)
//	13+8n  8n    strikes (float64)
//	13+16n 8n    expiries (float64)
//	...    n     types, 'c'/'p' (iff flags bit0)
//	...    n     styles, 'e'/'a' (iff flags bit1)
//
// The frame length must be exact — no trailing bytes.
//
// Response:
//
//	offset size  field
//	0      4     magic "FBR1"
//	4      1     flags: bit0 = degraded (defined, never set); any other bit is refused
//	5      1     method (1=closed-form, ... ; index into method table)
//	6      1     engine (1=batch-advanced, 2=scalar)
//	7      4     binomial_steps (uint32)
//	11     4     grid_points (uint32)
//	15     4     time_steps (uint32)
//	19     4     mc_paths (uint32)
//	23     8     seed (uint64)
//	31     4     batch_options (uint32)
//	35     8     elapsed_us (int64)
//	43     4     n = result count (uint32)
//	47     8n    prices (float64)

// ColumnarContentType selects the binary columnar request framing on
// POST /price.
const ColumnarContentType = "application/x-finbench-columnar"

const (
	columnarReqHeader  = 13
	columnarRespHeader = 47

	colFlagTypes  = 1 << 0
	colFlagStyles = 1 << 1

	respFlagDegraded = 1 << 0
)

var (
	columnarReqMagic  = [4]byte{'F', 'B', 'C', '1'}
	columnarRespMagic = [4]byte{'F', 'B', 'R', '1'}
)

var errNonFinite = errors.New(NonFiniteError)

// engineNames indexes the engine byte of the response frame.
var engineNames = []string{"", "batch-advanced", "scalar"}

// SniffColumnarDeadline extracts deadline_ms from a columnar request
// frame without decoding the columns (the router's deadline probe).
func SniffColumnarDeadline(data []byte) (int64, bool) {
	if len(data) < columnarReqHeader || [4]byte(data[:4]) != columnarReqMagic {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint32(data[5:9])), true
}

// DecodeColumnarRequest parses and validates a binary columnar frame;
// the method is always the closed form. The returned request is pooled:
// release with PutRequest. It is a fuzz entry point: any input either
// errors or round-trips through AppendColumnarRequest byte-identically.
// data is not retained.
func DecodeColumnarRequest(data []byte) (*PriceRequest, finbench.Method, error) {
	if len(data) < columnarReqHeader {
		return nil, 0, fmt.Errorf("columnar frame truncated: %d bytes, header is %d", len(data), columnarReqHeader)
	}
	if [4]byte(data[:4]) != columnarReqMagic {
		return nil, 0, fmt.Errorf("bad columnar magic %q", string(data[:4]))
	}
	flags := data[4]
	if flags&^(byte(colFlagTypes|colFlagStyles)) != 0 {
		return nil, 0, fmt.Errorf("unknown columnar flags 0x%02x", flags)
	}
	deadlineMS := binary.LittleEndian.Uint32(data[5:9])
	n := uint64(binary.LittleEndian.Uint32(data[9:13]))
	want := uint64(columnarReqHeader) + 24*n
	if flags&colFlagTypes != 0 {
		want += n
	}
	if flags&colFlagStyles != 0 {
		want += n
	}
	if uint64(len(data)) != want {
		return nil, 0, fmt.Errorf("columnar frame length %d; %d options need %d", len(data), n, want)
	}
	req := priceReqPool.Get().(*PriceRequest)
	req.reset()
	req.DeadlineMS = int64(deadlineMS)
	c := &req.colScratch
	c.Spots = decodeFloatColumn(sizedColumn(c.Spots, int(n)), data[columnarReqHeader:])
	off := columnarReqHeader + 8*int(n)
	c.Strikes = decodeFloatColumn(sizedColumn(c.Strikes, int(n)), data[off:])
	off += 8 * int(n)
	c.Expiries = decodeFloatColumn(sizedColumn(c.Expiries, int(n)), data[off:])
	off += 8 * int(n)
	if flags&colFlagTypes != 0 {
		c.Types = string(data[off : off+int(n)])
		off += int(n)
	}
	if flags&colFlagStyles != 0 {
		c.Styles = string(data[off : off+int(n)])
	}
	req.Columnar = c
	if err := validateColumns(c); err != nil {
		PutRequest(req)
		return nil, 0, err
	}
	return req, finbench.ClosedForm, nil
}

// AppendColumnarRequest appends req as a binary columnar frame. The
// request must carry Columnar framing (a client builds one directly).
func AppendColumnarRequest(dst []byte, req *PriceRequest) []byte {
	c := req.Columnar
	var flags byte
	if c.Types != "" {
		flags |= colFlagTypes
	}
	if c.Styles != "" {
		flags |= colFlagStyles
	}
	dst = append(dst, columnarReqMagic[:]...)
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(req.DeadlineMS))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Spots)))
	dst = appendFloatColumn(dst, c.Spots)
	dst = appendFloatColumn(dst, c.Strikes)
	dst = appendFloatColumn(dst, c.Expiries)
	dst = append(dst, c.Types...)
	dst = append(dst, c.Styles...)
	return dst
}

// AppendColumnarResponse appends r as a binary response frame. Results
// carry prices only (columnar is closed-form, which has no std_err). A
// non-finite price is refused, as the JSON encoder refuses it.
func AppendColumnarResponse(dst []byte, r *PriceResponse) ([]byte, error) {
	methodByte := byte(0)
	for i, name := range methodNames {
		if name == r.Method && i > 0 {
			methodByte = byte(i)
			break
		}
	}
	if methodByte == 0 {
		return dst, fmt.Errorf("columnar response: unknown method %q", r.Method)
	}
	engineByte := byte(0)
	for i, name := range engineNames {
		if name == r.Engine && i > 0 {
			engineByte = byte(i)
			break
		}
	}
	if engineByte == 0 {
		return dst, fmt.Errorf("columnar response: unknown engine %q", r.Engine)
	}
	var flags byte
	if r.Degraded {
		flags |= respFlagDegraded
	}
	dst = append(dst, columnarRespMagic[:]...)
	dst = append(dst, flags, methodByte, engineByte)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Config.BinomialSteps))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Config.GridPoints))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Config.TimeSteps))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Config.MCPaths))
	dst = binary.LittleEndian.AppendUint64(dst, r.Config.Seed)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.BatchOptions))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.ElapsedUS))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Results)))
	for i := range r.Results {
		p := r.Results[i].Price
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return dst, errNonFinite
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p))
	}
	return dst, nil
}

// DecodeColumnarResponse parses a binary response frame into the JSON
// response shape (a client's verify path; allocates freely).
func DecodeColumnarResponse(data []byte) (*PriceResponse, error) {
	if len(data) < columnarRespHeader {
		return nil, fmt.Errorf("columnar response truncated: %d bytes, header is %d", len(data), columnarRespHeader)
	}
	if [4]byte(data[:4]) != columnarRespMagic {
		return nil, fmt.Errorf("bad columnar response magic %q", string(data[:4]))
	}
	flags := data[4]
	if flags&^respFlagDegraded != 0 {
		return nil, fmt.Errorf("unknown columnar response flags 0x%02x", flags)
	}
	methodByte, engineByte := data[5], data[6]
	if methodByte == 0 || int(methodByte) >= len(methodNames) {
		return nil, fmt.Errorf("unknown columnar response method byte %d", methodByte)
	}
	if engineByte == 0 || int(engineByte) >= len(engineNames) {
		return nil, fmt.Errorf("unknown columnar response engine byte %d", engineByte)
	}
	n := uint64(binary.LittleEndian.Uint32(data[43:47]))
	if want := uint64(columnarRespHeader) + 8*n; uint64(len(data)) != want {
		return nil, fmt.Errorf("columnar response length %d; %d results need %d", len(data), n, want)
	}
	r := &PriceResponse{
		Method: methodNames[methodByte],
		Engine: engineNames[engineByte],
		Config: Config{
			BinomialSteps: int(binary.LittleEndian.Uint32(data[7:11])),
			GridPoints:    int(binary.LittleEndian.Uint32(data[11:15])),
			TimeSteps:     int(binary.LittleEndian.Uint32(data[15:19])),
			MCPaths:       int(binary.LittleEndian.Uint32(data[19:23])),
			Seed:          binary.LittleEndian.Uint64(data[23:31]),
		},
		Degraded:     flags&respFlagDegraded != 0,
		BatchOptions: int(binary.LittleEndian.Uint32(data[31:35])),
		ElapsedUS:    int64(binary.LittleEndian.Uint64(data[35:43])),
		Results:      make([]Result, n),
	}
	for i := range r.Results {
		r.Results[i].Price = math.Float64frombits(binary.LittleEndian.Uint64(data[columnarRespHeader+8*i:]))
	}
	return r, nil
}

// ValidColumnarResponse is the router's structural corrupt-body check
// for columnar 200s (the columnar counterpart of json.Valid).
func ValidColumnarResponse(data []byte) bool {
	if len(data) < columnarRespHeader || [4]byte(data[:4]) != columnarRespMagic {
		return false
	}
	if data[4]&^respFlagDegraded != 0 {
		return false
	}
	if m := data[5]; m == 0 || int(m) >= len(methodNames) {
		return false
	}
	if e := data[6]; e == 0 || int(e) >= len(engineNames) {
		return false
	}
	n := uint64(binary.LittleEndian.Uint32(data[43:47]))
	return uint64(len(data)) == uint64(columnarRespHeader)+8*n
}

// sizedColumn returns a length-n column reusing s's capacity.
func sizedColumn(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

func decodeFloatColumn(dst []float64, data []byte) []float64 {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return dst
}

func appendFloatColumn(dst []byte, col []float64) []byte {
	for _, v := range col {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}
