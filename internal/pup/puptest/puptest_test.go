package puptest

import (
	"strings"
	"testing"

	"charmgo/internal/pup"
)

type complete struct {
	A  int
	B  []float64
	S  string
	Ok bool
}

func (c *complete) Pup(p *pup.Pup) {
	p.Int(&c.A)
	p.Float64s(&c.B)
	p.String(&c.S)
	p.Bool(&c.Ok)
}

// dropper forgets Lost: byte round-trips still agree (the field is never
// serialized), but deep equality must expose the loss.
type dropper struct {
	A    int
	Lost float64
}

func (d *dropper) Pup(p *pup.Pup) { p.Int(&d.A) }

// swapper packs A then B but unpacks them crossed — the asymmetric-Pup bug
// the byte comparison catches.
type swapper struct {
	A, B int
}

func (s *swapper) Pup(p *pup.Pup) {
	if p.IsUnpacking() {
		p.Int(&s.B)
		p.Int(&s.A)
		return
	}
	p.Int(&s.A)
	p.Int(&s.B)
}

func TestRoundTripComplete(t *testing.T) {
	obj := &complete{A: 7, B: []float64{1.5, -2.25}, S: "chare", Ok: true}
	if err := RoundTripEqual(obj); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripEqualCatchesDroppedField(t *testing.T) {
	obj := &dropper{A: 1, Lost: 3.14}
	if err := RoundTrip(obj); err != nil {
		t.Fatalf("byte round trip should not see the dropped field: %v", err)
	}
	err := RoundTripEqual(obj)
	if err == nil || !strings.Contains(err.Error(), "differs") {
		t.Fatalf("want deep-equality failure, got %v", err)
	}
}

func TestRoundTripCatchesAsymmetricPup(t *testing.T) {
	if err := RoundTrip(&swapper{A: 1, B: 2}); err == nil {
		t.Fatal("want re-serialization mismatch for asymmetric Pup")
	}
	if err := RoundTrip(&swapper{A: 5, B: 5}); err != nil {
		t.Fatalf("symmetric values cannot expose the swap: %v", err)
	}
}

func TestRoundTripRejectsNonPointer(t *testing.T) {
	var nilObj *complete
	if err := RoundTrip(nilObj); err == nil {
		t.Fatal("want error for nil pointer")
	}
}

// padder sizes one word more than it packs: packing and unpacking agree, so
// only the explicit sizing check can expose it.
type padder struct{ A int }

func (d *padder) Pup(p *pup.Pup) {
	p.Int(&d.A)
	if p.Mode() == pup.Sizing {
		var pad int
		p.Int(&pad)
	}
}

func TestRoundTripCatchesSizingDisagreement(t *testing.T) {
	err := RoundTrip(&padder{A: 3})
	if err == nil || !strings.Contains(err.Error(), "sizes to 16 bytes but packs to 8") {
		t.Fatalf("want a sizing/packing disagreement, got %v", err)
	}
}
