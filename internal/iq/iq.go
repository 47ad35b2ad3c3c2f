// Package iq reads and writes complex baseband waveforms in the formats
// the SDR ecosystem uses: interleaved little-endian complex64 ("cf32",
// GNU Radio's native file format) and a plain CSV (i,q per line). This is
// the interoperability boundary of the library — a waveform captured with
// a USRP can be fed to the attack or defense, and emulated waveforms can
// be replayed through GNU Radio.
package iq

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteCF32 streams a waveform as interleaved float32 I/Q samples
// (GNU Radio file-sink byte order).
func WriteCF32(w io.Writer, samples []complex128) error {
	bw := bufio.NewWriter(w)
	var buf [8]byte
	for i, s := range samples {
		re := float32(real(s))
		im := float32(imag(s))
		if overflows(real(s)) || overflows(imag(s)) {
			return fmt.Errorf("iq: sample %d exceeds float32 range", i)
		}
		binary.LittleEndian.PutUint32(buf[0:4], math.Float32bits(re))
		binary.LittleEndian.PutUint32(buf[4:8], math.Float32bits(im))
		if _, err := bw.Write(buf[:]); err != nil {
			return fmt.Errorf("iq: write: %w", err)
		}
	}
	return bw.Flush()
}

func overflows(v float64) bool {
	return math.Abs(v) > math.MaxFloat32 || math.IsNaN(v) || math.IsInf(v, 0)
}

// ReadCF32 reads an entire cf32 stream. maxSamples bounds memory
// (0 = unlimited); a stream of exactly maxSamples samples is accepted.
func ReadCF32(r io.Reader, maxSamples int) ([]complex128, error) {
	rd := NewReaderCF32(r)
	block := make([]complex128, 4096)
	var out []complex128
	for {
		n, err := rd.ReadBlock(block)
		if maxSamples > 0 && len(out)+n > maxSamples {
			return nil, fmt.Errorf("iq: stream exceeds %d samples", maxSamples)
		}
		out = append(out, block[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// WriteCSV emits "i,q" lines with full float64 precision.
func WriteCSV(w io.Writer, samples []complex128) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("i,q\n"); err != nil {
		return fmt.Errorf("iq: write: %w", err)
	}
	for _, s := range samples {
		if _, err := fmt.Fprintf(bw, "%g,%g\n", real(s), imag(s)); err != nil {
			return fmt.Errorf("iq: write: %w", err)
		}
	}
	return bw.Flush()
}

// ReadCSV parses "i,q" lines; a leading header row is skipped.
func ReadCSV(r io.Reader, maxSamples int) ([]complex128, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 64*1024), 1024*1024)
	var out []complex128
	line := 0
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" {
			continue
		}
		if line == 1 && strings.HasPrefix(strings.ToLower(text), "i,") {
			continue // header
		}
		if maxSamples > 0 && len(out) >= maxSamples {
			return nil, fmt.Errorf("iq: stream exceeds %d samples", maxSamples)
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("iq: line %d: want 2 fields, got %d", line, len(parts))
		}
		re, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("iq: line %d: %w", line, err)
		}
		im, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("iq: line %d: %w", line, err)
		}
		out = append(out, complex(re, im))
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("iq: scan: %w", err)
	}
	return out, nil
}
