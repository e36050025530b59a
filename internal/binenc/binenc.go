// Package binenc reads the plain little-endian binary form of the warm-
// state snapshots (see sim.EncodeWarmState): fixed-width integers and
// raw byte runs, with no reflection and no length taken on trust.
// Writers append with encoding/binary's LittleEndian.Append* functions;
// a Reader decodes in the same order.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// errShort is the error of a read past the end of the input.
var errShort = errors.New("binenc: input too short")

// Reader decodes values from a byte slice in order. The first failure
// latches: every later read returns zero values, and Err reports it, so
// a decoder may read a whole structure and check once at the end.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. The Reader does not copy b; Bytes
// returns sub-slices of it.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Failf latches a decoding error unless one is already latched.
func (r *Reader) Failf(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Bytes returns the next n bytes, or nil (latching an error) if fewer
// remain. The length is checked before anything is allocated, so a
// hostile count costs nothing.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = errShort
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// End latches an error if input remains: an encoding is read whole or
// not at all.
func (r *Reader) End() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("binenc: %d trailing bytes", len(r.b))
	}
	return r.err
}
