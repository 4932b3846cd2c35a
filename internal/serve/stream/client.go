package stream

import (
	"bufio"
	"bytes"
	"io"
)

// Frame is one parsed SSE frame. Data is the payload with the SSE
// framing stripped, byte-for-byte what the server marshalled — consumers
// (the shard relay, the topology tests' verifier) depend on that for the
// bit-reproducibility checks.
type Frame struct {
	Event string
	Data  []byte
}

// FrameReader incrementally parses an SSE byte stream into frames. It
// understands the subset this tier emits (event: and data: lines, one
// frame per blank line) and skips everything else (comments, id:,
// retry:) per the SSE grammar.
type FrameReader struct {
	br *bufio.Reader
}

// NewFrameReader wraps r (typically an http.Response body).
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next blocks until one complete frame arrives, the stream ends (io.EOF
// after a clean close), or the read fails. The returned Data is freshly
// allocated — callers may retain it.
func (fr *FrameReader) Next() (Frame, error) {
	var f Frame
	var sawData bool
	for {
		line, err := fr.br.ReadBytes('\n')
		if len(line) > 0 {
			line = bytes.TrimRight(line, "\r\n")
			switch {
			case len(line) == 0:
				if f.Event != "" || sawData {
					return f, nil
				}
				// Stray separator before any field: keep reading.
			case bytes.HasPrefix(line, []byte("event:")):
				f.Event = string(bytes.TrimSpace(line[len("event:"):]))
			case bytes.HasPrefix(line, []byte("data:")):
				d := line[len("data:"):]
				if len(d) > 0 && d[0] == ' ' {
					d = d[1:]
				}
				if sawData {
					f.Data = append(f.Data, '\n')
				}
				f.Data = append(f.Data, d...)
				sawData = true
			}
		}
		if err != nil {
			return Frame{}, err
		}
	}
}
