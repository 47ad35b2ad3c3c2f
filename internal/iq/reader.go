package iq

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// ReaderCF32 is a chunked cf32 reader: it yields fixed-size blocks of
// samples from an io.Reader without ever holding the whole capture in
// memory. It satisfies the streaming Source contract used by
// internal/stream (ReadBlock), so an unbounded SDR pipe can feed the
// online detector directly.
type ReaderCF32 struct {
	r       io.Reader
	buf     []byte // raw bytes of one block, reused across ReadBlock calls
	samples int64
}

// NewReaderCF32 wraps r for chunked cf32 reading.
func NewReaderCF32(r io.Reader) *ReaderCF32 {
	return &ReaderCF32{r: r}
}

// ReadBlock fills dst with up to len(dst) samples and returns how many
// were read; it blocks until dst is full or the stream ends. At end of
// stream it returns io.EOF (with n == 0; a short final block is returned
// with a nil error first). A trailing partial sample is reported as an
// error, not silently dropped.
func (r *ReaderCF32) ReadBlock(dst []complex128) (int, error) {
	if len(dst) == 0 {
		return 0, fmt.Errorf("iq: ReadBlock into empty buffer")
	}
	if cap(r.buf) < 8*len(dst) {
		r.buf = make([]byte, 8*len(dst))
	}
	buf := r.buf[:8*len(dst)]
	m, err := io.ReadFull(r.r, buf)
	n := m / 8
	for i := range dst[:n] {
		b := buf[8*i : 8*i+8]
		re := math.Float32frombits(binary.LittleEndian.Uint32(b[0:4]))
		im := math.Float32frombits(binary.LittleEndian.Uint32(b[4:8]))
		dst[i] = complex(float64(re), float64(im))
	}
	r.samples += int64(n)
	switch {
	case err == nil:
		return n, nil
	case err == io.EOF:
		return 0, io.EOF
	case err == io.ErrUnexpectedEOF && m%8 == 0:
		return n, nil // short final block
	case err == io.ErrUnexpectedEOF:
		return n, fmt.Errorf("iq: truncated sample at index %d", r.samples)
	default:
		return n, fmt.Errorf("iq: read: %w", err)
	}
}

// Samples returns how many samples have been read so far.
func (r *ReaderCF32) Samples() int64 { return r.samples }
