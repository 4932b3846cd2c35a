package pricecache

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
)

// The content address. A cacheable response is a pure function of
// (effective method, market, resolved numeric config, canonicalized
// contract batch); Digest folds exactly those inputs — nothing
// transport-level (deadline, client identity, arrival order) — into a
// collision-resistant key, so two requests collide iff the protocol
// guarantees them byte-identical answers.
//
// Canonicalization: the wire encodes option type and exercise style as
// optional strings where "" means "call" / "european"; Digest maps both
// spellings to the same bit, so semantically equal batches digest
// equally. Everything else is hashed from its exact bit pattern
// (math.Float64bits for the contract terms, fixed-width integers for the
// config), so any numerically distinct batch digests differently. Batch
// order is significant by design: the results array aligns with the
// request's option order, so a permuted batch is a different response.

// Key is a content-addressed cache key (SHA-256 of the canonical
// encoding).
type Key [sha256.Size]byte

// Contract is one option contract in wire vocabulary: Type is "" or
// "call" (equivalent) or "put"; Style is "" or "european" (equivalent)
// or "american".
type Contract struct {
	Type, Style          string
	Spot, Strike, Expiry float64
}

// maxPooledContracts caps the capacity a contract slice may keep in the
// pool (64Ki contracts, 3.5 MB); key builders for larger batches allocate
// per request, a cost that amortizes over the batch.
const maxPooledContracts = 1 << 16

var contractPool = sync.Pool{New: func() any { return new([]Contract) }}

// GetContracts returns a pooled slice of n contracts for a key builder to
// fill before calling Digest. Return it with PutContracts.
func GetContracts(n int) *[]Contract {
	p := contractPool.Get().(*[]Contract)
	if cap(*p) < n {
		*p = make([]Contract, n)
	}
	*p = (*p)[:n]
	return p
}

// PutContracts recycles a slice from GetContracts. Digest does not retain
// its argument, so the slice may be put as soon as the key is computed.
func PutContracts(p *[]Contract) {
	if cap(*p) > maxPooledContracts {
		return
	}
	contractPool.Put(p)
}

// Params are the numeric knobs that select the pricing configuration.
// The router, which sees only the request, passes the values as sent, so
// a config change re-keys — invalidation by construction.
type Params struct {
	BinomialSteps int
	GridPoints    int
	TimeSteps     int
	MCPaths       int
	Seed          uint64
}

// digestVersion is bumped whenever the canonical encoding changes, so a
// new binary never reads entries keyed by an old scheme (the cache is
// in-memory only today; the version byte keeps that true by construction
// if entries ever become shareable).
const digestVersion = 1

// digestBlock is the stack buffer Digest encodes into before hashing: a
// multiple of SHA-256's 64-byte block, so every full buffer hashes as
// whole blocks with no carry-over copy.
const digestBlock = 4096

// contractBytes is the encoded size of one contract (flags + three
// float64 bit patterns).
const contractBytes = 32

// Digest computes the content address of a pricing request. rate and vol
// are the market the batch prices against (zero for tiers that key
// purely on request content, e.g. a router fronting a homogeneous
// fleet). The encoding is prefix-free — every variable-length field is
// length-prefixed and every scalar fixed-width — so distinct inputs
// never produce the same byte stream.
//
// The stream is appended into a stack buffer and hashed a buffer at a
// time (TestDigestGoldenKey pins it byte for byte against the
// one-Write-per-field encoder this replaced).
func Digest(method string, rate, vol float64, p Params, contracts []Contract) Key {
	h := sha256.New()
	var buf [digestBlock]byte
	b := buf[:0]
	b = binary.LittleEndian.AppendUint64(b, digestVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(method)))
	// A method too long to share the buffer with the eight header fields
	// after it is hashed straight from the string.
	if len(method) > digestBlock-len(b)-8*8 {
		_, _ = h.Write(b) // hash.Hash.Write never returns an error
		_, _ = h.Write([]byte(method))
		b = buf[:0]
	} else {
		b = append(b, method...)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rate))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(vol))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(p.BinomialSteps)))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(p.GridPoints)))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(p.TimeSteps)))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(p.MCPaths)))
	b = binary.LittleEndian.AppendUint64(b, p.Seed)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(contracts)))
	for i := range contracts {
		if len(b) > digestBlock-contractBytes {
			_, _ = h.Write(b)
			b = buf[:0]
		}
		c := &contracts[i]
		var flags uint64
		if c.Type == "put" {
			flags |= 1
		}
		if c.Style == "american" {
			flags |= 2
		}
		b = binary.LittleEndian.AppendUint64(b, flags)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Spot))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Strike))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Expiry))
	}
	_, _ = h.Write(b)
	var key Key
	h.Sum(key[:0])
	return key
}
