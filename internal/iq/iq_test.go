package iq

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randomWave(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

func TestCF32RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	wave := randomWave(rng, 1000)
	var buf bytes.Buffer
	if err := WriteCF32(&buf, wave); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 8000 {
		t.Fatalf("encoded %d bytes", buf.Len())
	}
	back, err := ReadCF32(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(wave) {
		t.Fatalf("%d samples back", len(back))
	}
	for i := range wave {
		// float32 quantization only.
		if cmplx.Abs(back[i]-wave[i]) > 1e-6*cmplx.Abs(wave[i])+1e-7 {
			t.Fatalf("sample %d: %v vs %v", i, back[i], wave[i])
		}
	}
}

func TestCF32RoundTripProperty(t *testing.T) {
	f := func(res []float32) bool {
		if len(res)%2 != 0 {
			res = res[:len(res)-1]
		}
		wave := make([]complex128, len(res)/2)
		for i := range wave {
			re, im := res[2*i], res[2*i+1]
			if math.IsNaN(float64(re)) || math.IsInf(float64(re), 0) ||
				math.IsNaN(float64(im)) || math.IsInf(float64(im), 0) {
				return true // skip non-finite draws
			}
			wave[i] = complex(float64(re), float64(im))
		}
		var buf bytes.Buffer
		if err := WriteCF32(&buf, wave); err != nil {
			return false
		}
		back, err := ReadCF32(&buf, 0)
		if err != nil || len(back) != len(wave) {
			return false
		}
		for i := range wave {
			if back[i] != wave[i] { // float32 values survive exactly
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCF32Errors(t *testing.T) {
	if err := WriteCF32(&bytes.Buffer{}, []complex128{complex(math.Inf(1), 0)}); err == nil {
		t.Error("accepted non-finite sample")
	}
	if err := WriteCF32(&bytes.Buffer{}, []complex128{complex(1e300, 0)}); err == nil {
		t.Error("accepted float32 overflow")
	}
	// Truncated stream.
	if _, err := ReadCF32(bytes.NewReader([]byte{1, 2, 3}), 0); err == nil {
		t.Error("accepted truncated stream")
	}
	// Limit enforcement.
	var buf bytes.Buffer
	if err := WriteCF32(&buf, make([]complex128, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCF32(&buf, 5); err == nil {
		t.Error("accepted stream above limit")
	}
}

// TestCF32ExactLimit: a stream of exactly maxSamples samples is within
// the bound (as ReadCSV treats it); one more sample is not.
func TestCF32ExactLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCF32(&buf, make([]complex128, 5)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	got, err := ReadCF32(bytes.NewReader(raw), 5)
	if err != nil || len(got) != 5 {
		t.Fatalf("exact-limit stream: %d samples, err %v; want 5, nil", len(got), err)
	}
	if _, err := ReadCF32(bytes.NewReader(raw), 4); err == nil {
		t.Error("accepted stream one sample above limit")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3,4\n"), 2); err != nil {
		t.Errorf("CSV exact-limit stream: %v", err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	wave := randomWave(rng, 200)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, wave); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(wave) {
		t.Fatalf("%d samples", len(back))
	}
	for i := range wave {
		if cmplx.Abs(back[i]-wave[i]) > 1e-12 {
			t.Fatalf("sample %d mismatch", i)
		}
	}
}

func TestCSVParsing(t *testing.T) {
	got, err := ReadCSV(strings.NewReader("i,q\n1,2\n\n 3 , -4 \n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1+2i || got[1] != 3-4i {
		t.Errorf("parsed %v", got)
	}
	if _, err := ReadCSV(strings.NewReader("1,2,3\n"), 0); err == nil {
		t.Error("accepted 3 fields")
	}
	if _, err := ReadCSV(strings.NewReader("x,2\n"), 0); err == nil {
		t.Error("accepted non-numeric i")
	}
	if _, err := ReadCSV(strings.NewReader("1,y\n"), 0); err == nil {
		t.Error("accepted non-numeric q")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3,4\n"), 1); err == nil {
		t.Error("accepted stream above limit")
	}
	// No header is fine too.
	got, err = ReadCSV(strings.NewReader("5,6\n"), 0)
	if err != nil || len(got) != 1 || got[0] != 5+6i {
		t.Errorf("headerless parse: %v, %v", got, err)
	}
}
