package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"sma/internal/grid"
)

// Coarse-to-fine multiresolution hypothesis search (ROADMAP item 3,
// docs/ALGORITHM.md, cost model in docs/PERFORMANCE.md §9). The paper's
// search is a brute-force argmin over (2·NZS+1)² shift hypotheses per
// pixel; the pyramid driver replaces it with an exhaustive sweep at a
// box-filtered coarse level (where the search radius shrinks by 2 per
// level) followed by small refinement windows seeded from the upsampled
// coarser flow, turning O(NZS²) hypothesis work into ~O(log NZS).
//
// Two per-pixel fallbacks keep the quality gate honest: a winner pinned
// to an interior refinement-window edge (the prior steered the window
// away from the true minimum) and a residual far above the frame median
// (coarse guidance found no plausible match, e.g. under aliasing) both
// re-run the pixel through today's exhaustive kernel, so poor guidance
// degrades to the exact answer instead of a wrong one.
//
// Only the continuous model is supported: the semi-fluid precompute is
// tied to a fixed global search window, which prior-guided search
// invalidates.

// PyramidOptions configures the coarse-to-fine search. The zero value
// disables it (Levels <= 1), preserving the bit-exact exhaustive default.
type PyramidOptions struct {
	// Levels is the number of resolution levels including full
	// resolution; values above the prepared coarse chain (or above what
	// the image size allows) are clamped, so requesting more levels than
	// exist degrades gracefully toward the exhaustive search.
	Levels int
	// RefineRadius is the half-width of the per-pixel refinement window
	// searched around the upsampled coarser estimate (0 selects the
	// default of DefaultRefineRadius). A radius covering the full search
	// window (>= 2·NZS) makes the level-0 sweep enumerate exactly the
	// exhaustive hypothesis set, bit-identically.
	RefineRadius int
	// FallbackFactor triggers the per-pixel exhaustive fallback when a
	// pixel's residual exceeds this multiple of the frame's median
	// residual (0 selects DefaultFallbackFactor; negative disables the
	// residual trigger, leaving only the window-edge trigger).
	FallbackFactor float64
}

const (
	// DefaultRefineRadius is the refinement half-width when
	// PyramidOptions.RefineRadius is zero: ±2 tolerates one pixel of
	// prior rounding error plus one pixel of coarse-estimate error.
	DefaultRefineRadius = 2
	// DefaultFallbackFactor is the residual-trigger multiple when
	// PyramidOptions.FallbackFactor is zero.
	DefaultFallbackFactor = 8
	// fallbackResidualFloor keeps the residual trigger meaningful on
	// synthetic scenes whose median residual is at the noise floor: the
	// threshold never drops below this absolute value.
	fallbackResidualFloor = 1e-12
)

// Enabled reports whether the options request the coarse-to-fine search.
func (po PyramidOptions) Enabled() bool { return po.Levels > 1 }

func (po PyramidOptions) refineRadius() int {
	if po.RefineRadius <= 0 {
		return DefaultRefineRadius
	}
	return po.RefineRadius
}

// PyramidStats reports what the coarse-to-fine driver actually did — the
// observable side of the §9 cost model. All counters are deterministic:
// they are sums over per-pixel quantities that do not depend on worker
// scheduling.
type PyramidStats struct {
	// Levels is the level count actually run (after clamping to the
	// prepared coarse chain).
	Levels int `json:"levels"`
	// RefineRadius is the resolved refinement half-width.
	RefineRadius int `json:"refine_radius"`
	// Pixels is the full-resolution pixel count.
	Pixels int64 `json:"pixels"`
	// Hypotheses counts every hypothesis evaluation across all levels
	// and the fallback pass.
	Hypotheses int64 `json:"hypotheses"`
	// HypPerPixel is Hypotheses / Pixels — the number the §9 cost model
	// predicts.
	HypPerPixel float64 `json:"hyp_per_pixel"`
	// ExhaustivePerPixel is the (2·NZS+1)² hypothesis count the
	// exhaustive search would evaluate per pixel.
	ExhaustivePerPixel int `json:"exhaustive_per_pixel"`
	// FallbackPixels counts level-0 pixels re-run through the exhaustive
	// kernel; EdgeFallbacks and ResidualFallbacks split them by trigger
	// (a pixel tripping both counts under the edge trigger).
	FallbackPixels    int64   `json:"fallback_pixels"`
	FallbackFrac      float64 `json:"fallback_frac"`
	EdgeFallbacks     int64   `json:"edge_fallbacks"`
	ResidualFallbacks int64   `json:"residual_fallbacks"`
}

// TrackPyramid is the hierarchical coarse-to-fine extension the paper's
// §6 lists as future work ("adaptive hierarchical non-square template and
// search windows"), mirroring the multiresolution strategy its ASA stereo
// substrate already uses: the pair is tracked at a coarse resolution
// first, and each finer level searches a small window centered on the
// upsampled coarser estimate. This entry point runs in extended-reach
// mode — refinement centers are not clamped to the full-resolution search
// window, so the reachable displacement grows toward NZS·2^(levels−1)
// while per-level cost stays fixed. For the in-window accelerator whose
// output is always a member of the exhaustive hypothesis set (with
// exhaustive fallback), set Options.Pyramid and use the parallel driver
// or TrackPyramidPreparedCtx.
func TrackPyramid(pair Pair, p Params, levels int, opt Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.SemiFluid() {
		return nil, fmt.Errorf("core: TrackPyramid requires the continuous model (NSS = 0)")
	}
	if err := pair.Validate(); err != nil {
		return nil, err
	}
	if levels < 1 {
		return nil, fmt.Errorf("core: need at least one pyramid level, got %d", levels)
	}
	prep, err := PreparePyramid(pair, p, levels)
	if err != nil {
		return nil, err
	}
	o := opt
	o.Pyramid.Levels = levels
	workers := opt.HostWorkers
	if workers < 1 {
		workers = 1
	}
	//smavet:allow ctxflow -- non-ctx compatibility entry point: a deliberate uncancellable root
	res, _, err := trackPyramidCtx(context.Background(), prep, o, workers, true)
	return res, err
}

// TrackPyramidPreparedCtx runs the coarse-to-fine accelerated search on
// pyramid-prepared geometry (PreparePyramid) and reports its cost
// statistics. Unlike TrackPyramid it stays inside the exhaustive search
// window: every reported displacement is a member of the (2·NZS+1)²
// hypothesis set, refinement windows are clamped into the per-level
// window, and the per-pixel fallback re-runs suspect pixels through the
// exhaustive kernel. With RefineRadius >= 2·NZS the result is
// bit-identical to TrackPrepared. Results are bit-identical at every
// worker count.
func TrackPyramidPreparedCtx(ctx context.Context, prep *Prepared, opt Options, workers int) (*Result, *PyramidStats, error) {
	return trackPyramidCtx(ctx, prep, opt, workers, false)
}

// scaledRadius is the search radius at pyramid level l: the full-
// resolution radius shrinks by 2 per level, never below 1.
func scaledRadius(r, l int) int {
	s := (r + (1 << l) - 1) >> l // ceil(r / 2^l)
	if s < 1 {
		s = 1
	}
	return s
}

// trackPyramidCtx is the shared coarse-to-fine driver. extend selects the
// legacy extended-reach behavior of TrackPyramid (full ±NZS sweep at the
// coarsest level, unclamped refinement centers, no fallback); otherwise
// it runs the in-window accelerator with exhaustive fallback.
func trackPyramidCtx(ctx context.Context, prep *Prepared, opt Options, workers int, extend bool) (*Result, *PyramidStats, error) {
	if ctx == nil {
		ctx = context.Background() //smavet:allow ctxflow -- nil-guard: a nil ctx documents "never cancel", and there is nothing to derive from
	}
	p := prep.P
	if p.SemiFluid() {
		return nil, nil, fmt.Errorf("core: pyramid search requires the continuous model (NSS = 0)")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	levels := opt.Pyramid.Levels
	if levels < 1 {
		levels = 1
	}
	if built := 1 + len(prep.Coarse); levels > built {
		levels = built
	}
	refine := opt.Pyramid.refineRadius()
	srx, sry := p.SearchRX(), p.SearchRY()
	st := &PyramidStats{
		Levels:             levels,
		RefineRadius:       refine,
		Pixels:             int64(prep.W) * int64(prep.H),
		ExhaustivePerPixel: p.Hypotheses(),
	}

	preps := make([]*Prepared, 0, levels)
	preps = append(preps, prep)
	preps = append(preps, prep.Coarse[:levels-1]...)

	var prior *grid.VectorField
	var res *Result
	var edge []bool
	for l := levels - 1; l >= 0; l-- {
		lp := preps[l]
		if prior != nil {
			// Promote the coarser flow: double the displacements and
			// resample to this level's dimensions.
			u := prior.U.Upsample2(lp.W, lp.H, 2)
			v := prior.V.Upsample2(lp.W, lp.H, 2)
			prior = &grid.VectorField{U: u, V: v}
		}
		// Per-level window geometry: baseR is the exhaustive radius used
		// when no prior exists (the coarsest level); capR clamps
		// refinement centers and window edges. In extend mode centers
		// roam freely and the coarsest sweep uses the full radius.
		baseRX, baseRY := scaledRadius(srx, l), scaledRadius(sry, l)
		capX, capY := baseRX, baseRY
		refX, refY := refine, refine
		if extend {
			// Legacy reach: every level re-searches the full ±NZS window
			// around the promoted prior, and centers roam freely.
			baseRX, baseRY = srx, sry
			capX, capY = math.MaxInt32/2, math.MaxInt32/2
			refX, refY = maxInt(refine, srx), maxInt(refine, sry)
		}
		// The window-edge fallback trigger only applies at full
		// resolution in accelerator mode, and only when a prior guided
		// the window.
		if l == 0 && !extend && levels > 1 {
			edge = make([]bool, lp.W*lp.H)
		}
		keep := opt.KeepMotion && l == 0
		var err error
		res, err = pyramidLevel(ctx, lp, opt, workers, prior,
			baseRX, baseRY, capX, capY, refX, refY, keep, edge, &st.Hypotheses)
		if err != nil {
			return nil, nil, err
		}
		prior = res.Flow
	}
	if !extend && levels > 1 {
		if err := pyramidFallback(ctx, prep, opt, workers, res, edge, st); err != nil {
			return nil, nil, err
		}
	}
	st.HypPerPixel = float64(st.Hypotheses) / float64(st.Pixels)
	if st.FallbackPixels > 0 {
		st.FallbackFrac = float64(st.FallbackPixels) / float64(st.Pixels)
	}
	return res, st, nil
}

// pyramidLevel runs one level's windowed hypothesis sweep with the
// work-stealing tile scheduler. prior == nil sweeps ±baseR exhaustively
// (the coarsest level); otherwise each pixel searches a ±refine window
// around its prior, with center and window clamped into ±capR. edge, when
// non-nil, records pixels whose winner sat on an interior window edge —
// the prior-misguidance fallback trigger. hyps accumulates hypothesis
// evaluations (atomically, once per row, so the sum is deterministic).
func pyramidLevel(ctx context.Context, lp *Prepared, opt Options, workers int, prior *grid.VectorField,
	baseRX, baseRY, capX, capY, refX, refY int, keepMotion bool, edge []bool, hyps *int64) (*Result, error) {
	w, h := lp.W, lp.H
	res := newResult(w, h, keepMotion)
	side := chooseTileSize(lp.P, w, h, workers)
	g := newTileGrid(w, h, side, side)
	err := forEachTileRow(ctx, g, workers, func() func(t tileRect, y int) {
		t := newTracker(lp, nil, opt)
		return func(tile tileRect, y int) {
			var rowHyps int64
			for x := tile.X0; x < tile.X1; x++ {
				lox, hix := -baseRX, baseRX
				loy, hiy := -baseRY, baseRY
				if prior != nil {
					u, v := prior.At(x, y)
					cx := clampInt(int(math.Round(float64(u))), -capX, capX)
					cy := clampInt(int(math.Round(float64(v))), -capY, capY)
					lox, hix = maxInt(cx-refX, -capX), minInt(cx+refX, capX)
					loy, hiy = maxInt(cy-refY, -capY), minInt(cy+refY, capY)
				}
				// The anchor — zero displacement clamped into the window —
				// makes a full ±NZS window enumerate exactly the
				// exhaustive search's sequence, which is what keeps the
				// full-radius configuration bit-identical to it.
				ax, ay := clampInt(0, lox, hix), clampInt(0, loy, hiy)
				hx, hy, eps, theta := t.trackPixelWindow(x, y, ax, ay, lox, hix, loy, hiy)
				res.set(x, y, hx, hy, eps, theta)
				if edge != nil {
					edge[y*w+x] = (lox > -capX && hx == lox) || (hix < capX && hx == hix) ||
						(loy > -capY && hy == loy) || (hiy < capY && hy == hiy)
				}
				rowHyps += int64(hix-lox+1) * int64(hiy-loy+1)
			}
			atomic.AddInt64(hyps, rowHyps)
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// pyramidFallback re-runs suspect level-0 pixels through the exhaustive
// kernel: pixels flagged by the window-edge trigger plus pixels whose
// residual exceeds FallbackFactor × the frame's median residual. Both
// triggers read only completed level-0 output, so the pixel set — and
// therefore the result — is deterministic at every worker count.
func pyramidFallback(ctx context.Context, prep *Prepared, opt Options, workers int, res *Result, edge []bool, st *PyramidStats) error {
	w, h := prep.W, prep.H
	need := edge
	if need == nil {
		need = make([]bool, w*h)
	}
	for _, f := range need {
		if f {
			st.EdgeFallbacks++
		}
	}
	factor := opt.Pyramid.FallbackFactor
	if factor == 0 {
		factor = DefaultFallbackFactor
	}
	if factor > 0 {
		thr := factor * medianFloat32(res.Err.Data)
		if thr < fallbackResidualFloor {
			thr = fallbackResidualFloor
		}
		for i, e := range res.Err.Data {
			if float64(e) > thr && !need[i] {
				need[i] = true
				st.ResidualFallbacks++
			}
		}
	}
	st.FallbackPixels = st.EdgeFallbacks + st.ResidualFallbacks
	if st.FallbackPixels == 0 {
		return nil
	}
	perPixel := int64(prep.P.Hypotheses())
	side := chooseTileSize(prep.P, w, h, workers)
	g := newTileGrid(w, h, side, side)
	var extra int64
	err := forEachTileRow(ctx, g, workers, func() func(t tileRect, y int) {
		t := newTracker(prep, nil, opt)
		return func(tile tileRect, y int) {
			var rowHyps int64
			for x := tile.X0; x < tile.X1; x++ {
				if !need[y*w+x] {
					continue
				}
				hx, hy, eps, theta := t.trackPixel(x, y)
				res.set(x, y, hx, hy, eps, theta)
				rowHyps += perPixel
			}
			if rowHyps > 0 {
				atomic.AddInt64(&extra, rowHyps)
			}
		}
	})
	if err != nil {
		return err
	}
	st.Hypotheses += atomic.LoadInt64(&extra)
	return nil
}

// medianFloat32 is the lower median of vs (deterministic for even
// lengths), computed in float64.
func medianFloat32(vs []float32) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := make([]float64, len(vs))
	for i, v := range vs {
		s[i] = float64(v)
	}
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TrackGuided runs one continuous-model tracking pass with per-pixel
// search centers taken from a prior displacement field (for example the
// previous frame pair's flow — temporal coherence — or a coarser pyramid
// level). The search window covers prior ± NZS per axis.
func TrackGuided(pair Pair, p Params, prior *grid.VectorField, opt Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.SemiFluid() {
		return nil, fmt.Errorf("core: TrackGuided requires the continuous model (NSS = 0)")
	}
	if err := pair.Validate(); err != nil {
		return nil, err
	}
	if prior != nil {
		if pw, ph := prior.Bounds(); pw != pair.I0.W || ph != pair.I0.H {
			return nil, fmt.Errorf("core: prior field %dx%d does not match image %dx%d",
				pw, ph, pair.I0.W, pair.I0.H)
		}
	}
	prep, err := Prepare(pair, p)
	if err != nil {
		return nil, err
	}
	return trackWithPrior(prep, prior, opt), nil
}

// trackWithPrior runs the hypothesis search with per-pixel search centers
// taken from a prior flow field (nil means zero centers everywhere).
func trackWithPrior(prep *Prepared, prior *grid.VectorField, opt Options) *Result {
	res := newResult(prep.W, prep.H, opt.KeepMotion)
	t := newTracker(prep, nil, opt)
	for y := 0; y < prep.H; y++ {
		for x := 0; x < prep.W; x++ {
			bx, by := 0, 0
			if prior != nil {
				u, v := prior.At(x, y)
				bx = int(math.Round(float64(u)))
				by = int(math.Round(float64(v)))
			}
			hx, hy, eps, theta := t.trackPixelFrom(x, y, bx, by)
			res.set(x, y, hx, hy, eps, theta)
		}
	}
	return res
}
