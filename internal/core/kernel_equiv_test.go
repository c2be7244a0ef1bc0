package core

import (
	"fmt"
	"math"
	"testing"

	"sma/internal/la"
	"sma/internal/synth"
)

// This file locks the hoisted kernel (preparePixel + scoreHyp + factored
// solves + ε early exit) to the retained naive kernel in reference.go.
// Every comparison is bitwise: the optimization contract is exact
// equivalence, not numerical closeness.

// TestOptimizedKernelMatchesReference runs the full raster search with
// both kernels across synthetic scenes × {continuous, semi-fluid} ×
// {least-squares, robust} and demands bit-identical flow, ε, and motion
// parameters.
func TestOptimizedKernelMatchesReference(t *testing.T) {
	scenes := []struct {
		name  string
		frame func(w, h int, seed int64) *synth.Scene
	}{
		{"hurricane", synth.Hurricane},
		{"thunderstorm", synth.Thunderstorm},
	}
	for _, sc := range scenes {
		for _, semi := range []bool{false, true} {
			for _, robust := range []bool{false, true} {
				name := fmt.Sprintf("%s/semi=%v/robust=%v", sc.name, semi, robust)
				t.Run(name, func(t *testing.T) {
					p := contParams()
					if semi {
						p = testParams()
					}
					s := sc.frame(20, 20, 211)
					prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), p)
					if err != nil {
						t.Fatal(err)
					}
					sm := BuildSemiMap(prep)
					opt := Options{Robust: robust, KeepMotion: true}
					ref := TrackPreparedReference(prep, sm, opt)
					got := TrackPrepared(prep, sm, opt)
					if !got.Flow.Equal(ref.Flow) {
						t.Fatal("flow differs from reference kernel")
					}
					if !got.Err.Equal(ref.Err) {
						t.Fatal("ε differs from reference kernel")
					}
					for i := range ref.Motion {
						if !got.Motion[i].Equal(ref.Motion[i]) {
							t.Fatalf("motion grid %d differs from reference kernel", i)
						}
					}
				})
			}
		}
	}
}

// TestEarlyExitBitIdentical sweeps every pixel with the ε early exit on
// and off: the argmin (hx, hy, ε, θ) must be bit-identical, because a
// pruned hypothesis provably cannot beat the incumbent under the strict
// ε < best acceptance.
func TestEarlyExitBitIdentical(t *testing.T) {
	for _, seed := range []int64{31, 32, 33} {
		for _, semi := range []bool{false, true} {
			for _, robust := range []bool{false, true} {
				name := fmt.Sprintf("seed=%d/semi=%v/robust=%v", seed, semi, robust)
				t.Run(name, func(t *testing.T) {
					p := contParams()
					if semi {
						p = testParams()
					}
					s := synth.Hurricane(18, 18, seed)
					prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), p)
					if err != nil {
						t.Fatal(err)
					}
					sm := BuildSemiMap(prep)
					opt := Options{Robust: robust}
					on := newTracker(prep, sm, opt)
					off := newTracker(prep, sm, opt)
					off.noEarlyExit = true
					for y := 0; y < prep.H; y++ {
						for x := 0; x < prep.W; x++ {
							hx1, hy1, e1, th1 := on.trackPixelFrom(x, y, 0, 0)
							hx2, hy2, e2, th2 := off.trackPixelFrom(x, y, 0, 0)
							if hx1 != hx2 || hy1 != hy2 {
								t.Fatalf("(%d,%d): argmin (%d,%d) with exit, (%d,%d) without",
									x, y, hx1, hy1, hx2, hy2)
							}
							if math.Float64bits(e1) != math.Float64bits(e2) {
								t.Fatalf("(%d,%d): ε %v with exit, %v without", x, y, e1, e2)
							}
							if th1 != th2 {
								t.Fatalf("(%d,%d): θ differs: %v vs %v", x, y, th1, th2)
							}
						}
					}
				})
			}
		}
	}
}

// TestBatchKernelMatchesReference is TestOptimizedKernelMatchesReference
// on a second scene seed. It keeps its name, and the batch=1 in its
// subtest names, from when the raster search also had multi-hypothesis
// batch widths; the scalar kernel is the only width left.
func TestBatchKernelMatchesReference(t *testing.T) {
	scenes := []struct {
		name  string
		frame func(w, h int, seed int64) *synth.Scene
	}{
		{"hurricane", synth.Hurricane},
		{"thunderstorm", synth.Thunderstorm},
	}
	for _, sc := range scenes {
		for _, semi := range []bool{false, true} {
			for _, robust := range []bool{false, true} {
				name := fmt.Sprintf("%s/semi=%v/robust=%v/batch=1", sc.name, semi, robust)
				t.Run(name, func(t *testing.T) {
					p := contParams()
					if semi {
						p = testParams()
					}
					s := sc.frame(20, 20, 137)
					prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), p)
					if err != nil {
						t.Fatal(err)
					}
					sm := BuildSemiMap(prep)
					opt := Options{Robust: robust, KeepMotion: true}
					ref := TrackPreparedReference(prep, sm, opt)
					got := TrackPrepared(prep, sm, opt)
					if !got.Flow.Equal(ref.Flow) {
						t.Fatal("flow differs from reference kernel")
					}
					if !got.Err.Equal(ref.Err) {
						t.Fatal("ε differs from reference kernel")
					}
					for i := range ref.Motion {
						if !got.Motion[i].Equal(ref.Motion[i]) {
							t.Fatalf("motion grid %d differs from reference kernel", i)
						}
					}
				})
			}
		}
	}
}

// TestBatchEarlyExitBitIdentical is TestEarlyExitBitIdentical on a
// thunderstorm scene. Its name and the batch=1 in its subtest names are
// kept from when the search also had multi-hypothesis batch widths.
func TestBatchEarlyExitBitIdentical(t *testing.T) {
	for _, semi := range []bool{false, true} {
		t.Run(fmt.Sprintf("batch=1/semi=%v", semi), func(t *testing.T) {
			p := contParams()
			if semi {
				p = testParams()
			}
			s := synth.Thunderstorm(18, 18, 44)
			prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), p)
			if err != nil {
				t.Fatal(err)
			}
			sm := BuildSemiMap(prep)
			on := newTracker(prep, sm, Options{})
			off := newTracker(prep, sm, Options{})
			off.noEarlyExit = true
			for y := 0; y < prep.H; y++ {
				for x := 0; x < prep.W; x++ {
					hx1, hy1, e1, th1 := on.trackPixelFrom(x, y, 0, 0)
					hx2, hy2, e2, th2 := off.trackPixelFrom(x, y, 0, 0)
					if hx1 != hx2 || hy1 != hy2 {
						t.Fatalf("(%d,%d): argmin (%d,%d) with exit, (%d,%d) without",
							x, y, hx1, hy1, hx2, hy2)
					}
					if math.Float64bits(e1) != math.Float64bits(e2) {
						t.Fatalf("(%d,%d): ε %v with exit, %v without", x, y, e1, e2)
					}
					if th1 != th2 {
						t.Fatalf("(%d,%d): θ differs: %v vs %v", x, y, th1, th2)
					}
				}
			}
		})
	}
}

// TestWindowSearchMatchesReference holds the unified windowed search to
// the reference window loop, bit for bit, away from the zero anchor: the
// prior-guided path (trackPixelFrom, used by TrackGuided and
// sequence.TrackTemporal) and explicit refine windows (trackPixelWindow,
// used by the pyramid levels). Every pixel of the image is tracked, so
// the windows cross the image border; the semi-fluid cases also straddle
// or leave the semi-map's ±NZS window, where δ falls back to 0.
func TestWindowSearchMatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		semi   bool
		prior  bool // trackPixelFrom: ±NZS around the anchor, plus δ
		ax, ay int  // anchor, scored first
		// explicit window for the !prior cases
		lox, hix, loy, hiy int
	}{
		{name: "cont/prior(3,-2)", prior: true, ax: 3, ay: -2},
		{name: "cont/prior(-6,5)", prior: true, ax: -6, ay: 5},
		{name: "cont/refine(1,0)", ax: 1, ay: 0, lox: -1, hix: 3, loy: -2, hiy: 2},
		{name: "cont/clamped(-2,2)", ax: -2, ay: 2, lox: -2, hix: 0, loy: 0, hiy: 2},
		{name: "semi/prior(2,1)", semi: true, prior: true, ax: 2, ay: 1},
		{name: "semi/prior(5,-5)", semi: true, prior: true, ax: 5, ay: -5},
		{name: "semi/refine(2,-2)", semi: true, ax: 2, ay: -2, lox: 0, hix: 4, loy: -4, hiy: 0},
	}
	for _, tc := range cases {
		for _, robust := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/robust=%v", tc.name, robust), func(t *testing.T) {
				p := contParams()
				if tc.semi {
					p = testParams()
				}
				s := synth.Hurricane(16, 16, 223)
				prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), p)
				if err != nil {
					t.Fatal(err)
				}
				sm := BuildSemiMap(prep)
				opt := Options{Robust: robust}
				fast := newTracker(prep, sm, opt)
				ref := newTracker(prep, sm, opt)
				ref.reference = true
				search := func(tr *tracker, x, y int) (int, int, float64, la.Vec6) {
					if tc.prior {
						return tr.trackPixelFrom(x, y, tc.ax, tc.ay)
					}
					return tr.trackPixelWindow(x, y, tc.ax, tc.ay, tc.lox, tc.hix, tc.loy, tc.hiy)
				}
				moved := 0
				for y := 0; y < prep.H; y++ {
					for x := 0; x < prep.W; x++ {
						hx1, hy1, e1, th1 := search(fast, x, y)
						hx2, hy2, e2, th2 := search(ref, x, y)
						if hx1 != hx2 || hy1 != hy2 {
							t.Fatalf("(%d,%d): argmin (%d,%d), reference (%d,%d)", x, y, hx1, hy1, hx2, hy2)
						}
						if math.Float64bits(e1) != math.Float64bits(e2) {
							t.Fatalf("(%d,%d): ε %v, reference %v", x, y, e1, e2)
						}
						if th1 != th2 {
							t.Fatalf("(%d,%d): θ %v, reference %v", x, y, th1, th2)
						}
						if hx1 != tc.ax || hy1 != tc.ay {
							moved++
						}
					}
				}
				if moved == 0 {
					t.Fatal("every winner is the anchor: the case does not exercise the sweep")
				}
			})
		}
	}
}

// TestMotionFactorMatchesSolveMotion pins the hoisted factor-once path to
// solveMotion on both branches: the plain elimination and the ridge
// fallback for rank-deficient A.
func TestMotionFactorMatchesSolveMotion(t *testing.T) {
	check := func(t *testing.T, a *la.Mat6, rhs []la.Vec6) {
		t.Helper()
		var mf motionFactor
		fa := *a
		mf.factorMotion(&fa)
		for i, b := range rhs {
			ba, bb := b, b
			aa := *a
			want := solveMotion(&aa, &ba)
			got := mf.solveFactored(&bb)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("rhs %d, θ[%d]: factored %v != solveMotion %v", i, j, got[j], want[j])
				}
			}
		}
	}
	someRHS := func(base float64) []la.Vec6 {
		out := make([]la.Vec6, 5)
		for i := range out {
			for j := range out[i] {
				out[i][j] = base + float64(i)*0.7 - float64(j)*0.3
			}
		}
		return out
	}

	t.Run("well-conditioned", func(t *testing.T) {
		var a la.Mat6
		for k := 0; k < 9; k++ {
			zx := 0.2*float64(k) - 0.8
			zy := 0.5 - 0.1*float64(k)
			accumulateA(&a, zx, zy, 1.1, 0.9)
		}
		symmetrize(&a)
		check(t, &a, someRHS(0.25))
	})
	t.Run("ridge-fallback", func(t *testing.T) {
		// A flat surface (zx = zy = 0) leaves the normal equations rank
		// deficient; solveMotion falls back to a ridge derived from tr(A),
		// which is hypothesis-invariant, so factorMotion hoists it too.
		var a la.Mat6
		for k := 0; k < 9; k++ {
			accumulateA(&a, 0, 0, 1, 1)
		}
		symmetrize(&a)
		if _, ok := la.Factor6(&a); ok {
			t.Fatal("flat-surface system unexpectedly factorable; test needs a harder case")
		}
		check(t, &a, someRHS(0.05))
	})
	t.Run("zero-system", func(t *testing.T) {
		var a la.Mat6
		check(t, &a, someRHS(0.4))
	})
}

// TestResidualSumBoundedExact pins the pruning contract: with an infinite
// bound the bounded sum equals residualSum bitwise, and a pruned
// evaluation implies the true ε is at least the bound.
func TestResidualSumBoundedExact(t *testing.T) {
	s := synth.Hurricane(16, 16, 51)
	prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), contParams())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracker(prep, nil, Options{})
	for y := 3; y < 13; y += 3 {
		for x := 3; x < 13; x += 3 {
			tr.preparePixel(x, y)
			full, th, _ := tr.scoreHyp(x, y, 1, 0, math.Inf(1))
			if got, _ := residualSumBounded(tr.buf, &th, math.Inf(1)); math.Float64bits(got) != math.Float64bits(full) {
				t.Fatalf("(%d,%d): unbounded residualSumBounded %v != scoreHyp ε %v", x, y, got, full)
			}
			for _, frac := range []float64{0.1, 0.5, 0.9} {
				bound := full * frac
				eps, pruned := residualSumBounded(tr.buf, &th, bound)
				if !pruned {
					t.Fatalf("(%d,%d): bound %v below ε %v not pruned", x, y, bound, full)
				}
				if eps < bound {
					t.Fatalf("(%d,%d): pruned with partial sum %v below bound %v", x, y, eps, bound)
				}
			}
		}
	}
}
