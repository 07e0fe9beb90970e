package pup

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// demo mirrors the paper's Fig 3 example class.
type demo struct {
	Foo  int
	Bar  []float64
	Name string
	Flag bool
	Blob []byte
	I64  int64
	B    uint8
}

func (d *demo) Pup(p *Pup) {
	p.Int(&d.Foo)
	p.Float64s(&d.Bar)
	p.String(&d.Name)
	p.Bool(&d.Flag)
	p.BytesSlice(&d.Blob)
	p.Int64(&d.I64)
	p.Uint8(&d.B)
}

func TestRoundTrip(t *testing.T) {
	in := &demo{
		Foo:  -42,
		Bar:  []float64{1.5, -2.25, math.Pi},
		Name: "chare",
		Flag: true,
		Blob: []byte{0, 1, 255},
		I64:  -1 << 62,
		B:    200,
	}
	data := Pack(in)
	out := &demo{}
	if err := Unpack(data, out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestSizeMatchesPack(t *testing.T) {
	d := &demo{Bar: make([]float64, 17), Name: "x", Blob: make([]byte, 3)}
	if got, want := Size(d), len(Pack(d)); got != want {
		t.Fatalf("Size=%d, len(Pack)=%d", got, want)
	}
}

func TestEmptyValues(t *testing.T) {
	in := &demo{}
	out := &demo{Foo: 7, Bar: []float64{9}, Name: "junk"}
	if err := Unpack(Pack(in), out); err != nil {
		t.Fatal(err)
	}
	if out.Foo != 0 || len(out.Bar) != 0 || out.Name != "" {
		t.Fatalf("unpack did not overwrite prior state: %+v", out)
	}
}

func TestUnpackShortBuffer(t *testing.T) {
	data := Pack(&demo{Name: "hello"})
	if err := Unpack(data[:len(data)-3], &demo{}); err == nil {
		t.Fatal("truncated buffer should error")
	}
}

func TestUnpackTrailingGarbage(t *testing.T) {
	data := append(Pack(&demo{}), 0xff)
	if err := Unpack(data, &demo{}); err == nil {
		t.Fatal("trailing bytes should error")
	}
}

func TestModeString(t *testing.T) {
	if Sizing.String() != "sizing" || Packing.String() != "packing" || Unpacking.String() != "unpacking" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode string empty")
	}
}

type nested struct {
	Rows [][]float64
	Kids []demo
}

func (n *nested) Pup(p *Pup) {
	Slice(p, &n.Rows, func(p *Pup, r *[]float64) { p.Float64s(r) })
	Slice(p, &n.Kids, func(p *Pup, d *demo) { d.Pup(p) })
}

func TestNestedSlices(t *testing.T) {
	in := &nested{
		Rows: [][]float64{{1, 2}, nil, {3}},
		Kids: []demo{{Foo: 1, Name: "a"}, {Foo: 2, Name: "b", Bar: []float64{4}}},
	}
	out := &nested{}
	if err := Unpack(Pack(in), out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("nested mismatch: %+v vs %+v", in, out)
	}
}

func TestNaNRoundTrip(t *testing.T) {
	in := &demo{Bar: []float64{math.NaN(), math.Inf(1), math.Inf(-1)}}
	out := &demo{}
	if err := Unpack(Pack(in), out); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(out.Bar[0]) || !math.IsInf(out.Bar[1], 1) || !math.IsInf(out.Bar[2], -1) {
		t.Fatalf("special floats mangled: %v", out.Bar)
	}
}

// Property: arbitrary demo values survive a round trip.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(foo int, bar []float64, name string, flag bool, blob []byte, i64 int64, b uint8) bool {
		for i, x := range bar {
			if math.IsNaN(x) {
				bar[i] = 0 // NaN breaks DeepEqual, tested separately above
			}
		}
		in := &demo{Foo: foo, Bar: bar, Name: name, Flag: flag, Blob: blob, I64: i64, B: b}
		out := &demo{}
		if err := Unpack(Pack(in), out); err != nil {
			return false
		}
		// Normalize nil vs empty slices, which DeepEqual distinguishes.
		if len(in.Bar) == 0 {
			in.Bar, out.Bar = nil, nil
		}
		if len(in.Blob) == 0 {
			in.Blob, out.Blob = nil, nil
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Size always equals the packed length.
func TestPropertySizeConsistent(t *testing.T) {
	f := func(bar []float64, name string, blob []byte) bool {
		d := &demo{Bar: bar, Name: name, Blob: blob}
		return Size(d) == len(Pack(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPackUnpack(b *testing.B) {
	d := &demo{Bar: make([]float64, 256), Blob: make([]byte, 1024), Name: "bench"}
	out := &demo{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Unpack(Pack(d), out); err != nil {
			b.Fatal(err)
		}
	}
}
