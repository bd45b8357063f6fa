package gp

import (
	"math"
	"testing"

	"carbon/internal/rng"
)

// sameFloat reports bitwise equality, with every NaN equal to every
// other: math.Mod's NaN payload is not part of its contract.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// modCases lists the operand pairs the protected-modulo tests start
// from, each in all four sign combinations: special values,
// subnormals and the extremes, quotients around fastMod's 2⁵² cutover,
// and exact multiples of the divisor with their one-ulp neighbours,
// where a rounded quotient is most likely to be one off.
func modCases() [][2]float64 {
	inf, nan := math.Inf(1), math.NaN()
	tiny, sub := math.SmallestNonzeroFloat64, 2.5e-310
	base := [][2]float64{
		{nan, 3}, {3, nan}, {nan, nan}, {inf, 3}, {3, inf}, {inf, inf},
		{0, 3}, {3, 0}, {0, 0}, {0, inf}, {inf, 0},
		{tiny, 1}, {1, tiny}, {tiny, tiny}, {sub, tiny}, {sub, 3e-311}, {1e-300, sub},
		{math.MaxFloat64, 1}, {math.MaxFloat64, 3}, {math.MaxFloat64, tiny},
		{math.MaxFloat64, math.MaxFloat64}, {1, math.MaxFloat64}, {tiny, math.MaxFloat64},
		{7, 3}, {5.5, 2}, {1e-12, 3}, {3, 1e-12}, {0.3, 0.1}, {1, 0.1},
	}
	for _, q := range []float64{1<<52 - 1, 1 << 52, 1<<52 + 1} {
		for _, b := range []float64{1, 3, 0.1, 7.25, 1e-9, 1e300 / (1 << 52)} {
			a := q * b
			base = append(base, [2]float64{a, b},
				[2]float64{math.Nextafter(a, 0), b}, [2]float64{math.Nextafter(a, inf), b})
		}
	}
	for _, b := range []float64{0.1, 3, 1e-5, 7, 0.7, 1e-12, 1e12} {
		for _, k := range []float64{1, 2, 3, 10, 12345, 1e9} {
			a := k * b
			base = append(base, [2]float64{a, b},
				[2]float64{math.Nextafter(a, 0), b}, [2]float64{math.Nextafter(a, inf), b})
		}
	}
	var out [][2]float64
	for _, c := range base {
		for _, s := range [][2]float64{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
			out = append(out, [2]float64{math.Copysign(c[0], s[0]), math.Copysign(c[1], s[1])})
		}
	}
	return out
}

// checkMod compares fastMod with math.Mod, and the protected operator
// (through Mod.F2 and through the VM) with its definition.
func checkMod(t *testing.T, a, b float64) {
	t.Helper()
	if got, want := fastMod(a, b), math.Mod(a, b); !sameFloat(got, want) {
		t.Fatalf("fastMod(%v, %v) = %v (%#x), math.Mod = %v (%#x)",
			a, b, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	want := 1.0
	if !(math.Abs(b) < protEps) {
		want = math.Mod(a, b)
	}
	if got := Mod.F2(a, b); !sameFloat(got, want) {
		t.Fatalf("Mod.F2(%v, %v) = %v, want %v", a, b, got, want)
	}
}

func TestProtectedModMatchesMathMod(t *testing.T) {
	cases := modCases()
	for _, c := range cases {
		checkMod(t, c[0], c[1])
	}
	// Random bit patterns cover every exponent pair; random moderate
	// operands cover the quotients GP trees produce.
	r := rng.New(97)
	for i := 0; i < 200000; i++ {
		a, b := math.Float64frombits(r.Uint64()), math.Float64frombits(r.Uint64())
		checkMod(t, a, b)
		checkMod(t, r.Range(-1e6, 1e6), r.Range(-50, 50))
	}
	// The VM runs the same operator: feed it the seed cases too.
	s := &Set{Ops: []Op{Mod}, Terms: []string{"a", "b"}}
	tr, err := Parse(s, "(mod a b)")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM()
	for _, c := range cases {
		env := []float64{c[0], c[1]}
		if got, want := vm.Eval(prog, env), tr.Eval(s, env); !sameFloat(got, want) {
			t.Fatalf("VM mod(%v, %v) = %v, interpreter %v", c[0], c[1], got, want)
		}
	}
}

func FuzzProtectedMod(f *testing.F) {
	for _, c := range modCases() {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, a, b float64) {
		checkMod(t, a, b)
	})
}

var modSink float64

// BenchmarkProtectedMod times the protected modulo on operands drawn
// like a GP tree's: moderate magnitudes, quotients from 0 to ~10⁵.
func BenchmarkProtectedMod(b *testing.B) {
	r := rng.New(3)
	ops := make([][2]float64, 1024)
	for i := range ops {
		ops[i] = [2]float64{r.Range(-1e4, 1e4), r.Range(-20, 20)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	acc := 0.0
	for i := 0; i < b.N; i++ {
		c := ops[i%len(ops)]
		acc += Mod.F2(c[0], c[1])
	}
	modSink = acc
}
