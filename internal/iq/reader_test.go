package iq

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
)

func TestReaderCF32Blocks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 1000
	samples := make([]complex128, n)
	for i := range samples {
		// Keep values exactly float32-representable so the round trip is
		// lossless.
		samples[i] = complex(float64(float32(rng.NormFloat64())), float64(float32(rng.NormFloat64())))
	}
	var buf bytes.Buffer
	if err := WriteCF32(&buf, samples); err != nil {
		t.Fatal(err)
	}
	r := NewReaderCF32(&buf)
	var got []complex128
	block := make([]complex128, 64)
	for {
		k, err := r.ReadBlock(block)
		got = append(got, block[:k]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != n {
		t.Fatalf("read %d samples, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != samples[i] {
			t.Fatalf("sample %d: %v, want %v", i, got[i], samples[i])
		}
	}
	if r.Samples() != n {
		t.Errorf("Samples() = %d, want %d", r.Samples(), n)
	}
}

func TestReaderCF32ShortFinalBlock(t *testing.T) {
	samples := make([]complex128, 40)
	var buf bytes.Buffer
	if err := WriteCF32(&buf, samples); err != nil {
		t.Fatal(err)
	}
	r := NewReaderCF32(&buf)
	block := make([]complex128, 64)
	k, err := r.ReadBlock(block)
	if k != 40 || err != nil {
		t.Fatalf("short final block: n=%d err=%v, want 40/nil", k, err)
	}
	if k, err = r.ReadBlock(block); k != 0 || err != io.EOF {
		t.Fatalf("after end: n=%d err=%v, want 0/io.EOF", k, err)
	}
}

func TestReaderCF32Truncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCF32(&buf, make([]complex128, 2)); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:12] // sample 1 cut mid-way
	r := NewReaderCF32(bytes.NewReader(trunc))
	block := make([]complex128, 8)
	k, err := r.ReadBlock(block)
	if k != 1 || err == nil || err == io.EOF {
		t.Fatalf("truncated stream: n=%d err=%v, want 1 sample and a hard error", k, err)
	}
}

func TestReaderCF32EmptyBuffer(t *testing.T) {
	r := NewReaderCF32(bytes.NewReader(nil))
	if _, err := r.ReadBlock(nil); err == nil {
		t.Fatal("accepted empty destination")
	}
}

// TestReaderCF32ReadShapes: how the underlying reader splits its reads
// (one byte at a time, half reads, data returned together with EOF) must
// not change a single sample, block boundary, or error, on a clean stream
// and on one ending in a partial sample.
func TestReaderCF32ReadShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	samples := make([]complex128, 200)
	for i := range samples {
		samples[i] = complex(float64(float32(rng.NormFloat64())), float64(float32(rng.NormFloat64())))
	}
	var buf bytes.Buffer
	if err := WriteCF32(&buf, samples); err != nil {
		t.Fatal(err)
	}
	// Three full 64-sample blocks, then a short final block of 8.
	call := func(lo, hi int, err string) string { return fmt.Sprintf("%v %s", samples[lo:hi], err) }
	clean := []string{call(0, 64, "<nil>"), call(64, 128, "<nil>"), call(128, 192, "<nil>"), call(192, 200, "<nil>"), "[] EOF"}
	truncated := append(clean[:3:3], call(192, 200, "iq: truncated sample at index 200"))
	for _, tc := range []struct {
		data []byte
		want []string
	}{
		{buf.Bytes(), clean},
		{append(buf.Bytes(), 1, 2, 3), truncated},
	} {
		for shape, r := range map[string]io.Reader{
			"whole":    bytes.NewReader(tc.data),
			"one-byte": iotest.OneByteReader(bytes.NewReader(tc.data)),
			"half":     iotest.HalfReader(bytes.NewReader(tc.data)),
			"data-err": iotest.DataErrReader(bytes.NewReader(tc.data)),
		} {
			rd := NewReaderCF32(r)
			block := make([]complex128, 64)
			var got []string
			for err := error(nil); err == nil; {
				var n int
				n, err = rd.ReadBlock(block)
				got = append(got, fmt.Sprintf("%v %v", block[:n], err))
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("%s reader, %d bytes: ReadBlock calls diverge:\n got %.300q\nwant %.300q", shape, len(tc.data), got, tc.want)
			}
		}
	}
}
