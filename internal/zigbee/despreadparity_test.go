package zigbee

import (
	"math/rand"
	"testing"
)

// referenceDespread runs the standalone reference despreader of mode on
// the chip streams a reception exposes.
func referenceDespread(t *testing.T, mode DespreadMode, soft, disc []float64) []DespreadResult {
	t.Helper()
	var want []DespreadResult
	var err error
	switch mode {
	case HardThreshold:
		want, err = DespreadHard(HardChips(soft), DefaultHammingThreshold)
	case SoftCorrelation:
		want, err = DespreadSoft(soft)
	case FMDiscriminator:
		want, err = DespreadDiscriminator(disc, DefaultHammingThreshold)
	}
	if err != nil {
		t.Fatalf("mode %d: reference despread: %v", mode, err)
	}
	return want
}

// assertResultsEqual requires the receiver's per-symbol results to equal
// the reference despreader's, field for field.
func assertResultsEqual(t *testing.T, tag string, got, want []DespreadResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results vs reference %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: result %d: receiver %+v vs reference %+v", tag, i, got[i], want[i])
		}
	}
}

// TestDespreadParityNearThreshold stresses the symbol-decision boundary:
// many noise seeds at SNRs where chip errors hover around the Hamming
// drop threshold and soft correlations run nearly tied. In every mode the
// receiver's Results must match what the reference despreaders produce
// from the receiver's own chip streams. Receive still reports Results
// when symbol windows drop, so dropped windows are compared too.
func TestDespreadParityNearThreshold(t *testing.T) {
	tx := NewTransmitter()
	wave, err := tx.TransmitPSDU([]byte("edge-despread"))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []DespreadMode{HardThreshold, SoftCorrelation, FMDiscriminator} {
		rx, err := NewReceiver(ReceiverConfig{Mode: mode, SyncThreshold: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		compared := 0
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(4000 + seed))
			capture := addAWGN(rng, wave, 0.55+0.03*float64(seed%10))
			rec, _ := rx.Receive(capture)
			if rec == nil || len(rec.Results) == 0 {
				continue // no frame-level despread ran (sync or header failure)
			}
			want := referenceDespread(t, mode, rec.SoftChips, rec.DiscriminatorChips)
			assertResultsEqual(t, "near-threshold", rec.Results, want)
			compared++
		}
		if compared == 0 {
			t.Errorf("mode %d: near-threshold sweep despread no frame — not exercising the boundary", mode)
		}
	}
}

// TestDespreadPipelineMatchesLegacyAPI pins the receiver's in-place
// despread against the standalone reference despreaders on a clean
// golden frame: the receiver's Results must match what DespreadHard/
// DespreadSoft/DespreadDiscriminator produce from the receiver's own chip
// streams.
func TestDespreadPipelineMatchesLegacyAPI(t *testing.T) {
	tx := NewTransmitter()
	wave, err := tx.TransmitPSDU([]byte("golden"))
	if err != nil {
		t.Fatal(err)
	}
	capture := addAWGN(rand.New(rand.NewSource(9)), wave, 0.2)
	for _, mode := range []DespreadMode{HardThreshold, SoftCorrelation, FMDiscriminator} {
		rx, err := NewReceiver(ReceiverConfig{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := rx.Receive(capture)
		if err != nil {
			t.Fatalf("mode %d: golden frame: %v", mode, err)
		}
		want := referenceDespread(t, mode, rec.SoftChips, rec.DiscriminatorChips)
		assertResultsEqual(t, "golden", rec.Results, want)
	}
}

// TestDespreadTiesMatchLegacyAPI feeds the receiver's despreaders windows
// built to tie: the all-zero window (every codeword equally close) and
// the midpoint of every codeword pair. Ties must break exactly as in
// DespreadHard/DespreadSoft — the first index wins. A codeword with its
// −1 chips zeroed pins the hard decision of an exact 0 (chip 1).
func TestDespreadTiesMatchLegacyAPI(t *testing.T) {
	soft := make([]float64, 2*ChipsPerSymbol) // all-zero window
	for i, c := range chipPM[5] {
		soft[ChipsPerSymbol+i] = max(c, 0)
	}
	for a := 0; a < 16; a++ {
		for b := a + 1; b < 16; b++ {
			for i := 0; i < ChipsPerSymbol; i++ {
				soft = append(soft, (chipPM[a][i]+chipPM[b][i])/2)
			}
		}
	}
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]DespreadResult, len(soft)/ChipsPerSymbol)
	for mode, despread := range map[DespreadMode]func([]DespreadResult, []float64) error{
		HardThreshold:   rx.despreadHardInto,
		SoftCorrelation: rx.despreadSoftInto,
	} {
		if err := despread(got, soft); err != nil {
			t.Fatal(err)
		}
		want := referenceDespread(t, mode, soft, nil)
		if want[0].Symbol != 0 {
			t.Fatalf("mode %d: all-zero window: reference picks %d, want 0", mode, want[0].Symbol)
		}
		assertResultsEqual(t, "tie", got, want)
	}
}
