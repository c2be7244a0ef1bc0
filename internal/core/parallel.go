package core

import (
	"context"
	"fmt"
	"runtime"
)

// TrackPreparedParallel runs the hypothesis search on already-prepared
// geometry with worker goroutines claiming pixel tiles off a
// work-stealing index (0 workers = GOMAXPROCS; tile size from
// chooseTileSize) — the modern shared-memory analog of the paper's
// data-parallel execution. Tiles are disjoint and the inputs read-only,
// so the result is bit-identical to TrackPrepared at every worker count
// — the property the streaming pipeline's parallel mode relies on.
func TrackPreparedParallel(prep *Prepared, sm *SemiMap, opt Options, workers int) *Result {
	//smavet:allow errdiscard,ctxflow -- non-ctx compatibility wrapper: a deliberate uncancellable root, so the error is impossible
	res, _ := TrackPreparedParallelCtx(context.Background(), prep, sm, opt, workers)
	return res
}

// TrackPreparedParallelCtx is TrackPreparedParallel with cooperative
// cancellation: when ctx is cancelled mid-search no further tile rows
// start, workers finish at most their current row each (forEachTileRow
// polls ctx before every row), and the call returns (nil, ctx.Err()).
// Completed runs are bit-identical to TrackPrepared at every worker
// count — this is the cancellation point a serving deadline threads
// down to.
func TrackPreparedParallelCtx(ctx context.Context, prep *Prepared, sm *SemiMap, opt Options, workers int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background() //smavet:allow ctxflow -- nil-guard: a nil ctx documents "never cancel", and there is nothing to derive from
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opt.Pyramid.Enabled() {
		// Coarse-to-fine accelerated search (pyramid.go). Continuous
		// model only; sm is always nil there. Requests without prepared
		// coarse levels degrade to the exhaustive sweep inside the
		// driver.
		if sm != nil || prep.P.SemiFluid() {
			return nil, fmt.Errorf("core: pyramid search requires the continuous model (NSS = 0)")
		}
		res, _, err := trackPyramidCtx(ctx, prep, opt, workers, false)
		return res, err
	}
	side := chooseTileSize(prep.P, prep.W, prep.H, workers)
	return trackTiled(ctx, prep, sm, opt, workers, side, side)
}

// trackTiled runs the exhaustive search over tw×th pixel tiles. Tiling
// is pure scheduling, so every tile shape yields the same bits; the
// tile-shape tests sweep shapes through this seam.
func trackTiled(ctx context.Context, prep *Prepared, sm *SemiMap, opt Options, workers, tw, th int) (*Result, error) {
	res := newResult(prep.W, prep.H, opt.KeepMotion)
	g := newTileGrid(prep.W, prep.H, tw, th)
	err := forEachTileRow(ctx, g, workers, func() func(t tileRect, y int) {
		// Each worker owns a tracker (scratch buffers are not shared);
		// pixels are written to disjoint result cells, so any
		// pixel→worker assignment yields the same bits.
		t := newTracker(prep, sm, opt)
		return func(tile tileRect, y int) {
			for x := tile.X0; x < tile.X1; x++ {
				hx, hy, eps, theta := t.trackPixel(x, y)
				res.set(x, y, hx, hy, eps, theta)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
