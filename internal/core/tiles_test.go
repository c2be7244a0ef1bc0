package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sma/internal/synth"
)

// TestTileGridPartition checks the tile grid is an exact partition for
// awkward shapes: every pixel belongs to exactly one tile, tiles are
// clipped at the right/bottom edges, and row-major tile order matches
// row-major (ty, tx) order.
func TestTileGridPartition(t *testing.T) {
	shapes := []struct{ w, h, tw, th int }{
		{1, 1, 1, 1}, {7, 5, 3, 2}, {64, 64, 16, 16}, {64, 64, 17, 9},
		{3, 11, 8, 8}, {22, 22, 5, 3}, {10, 1, 4, 4}, {1, 10, 4, 4},
		{9, 9, 0, -2}, // degenerate sizes clamp to 1
	}
	for _, s := range shapes {
		t.Run(fmt.Sprintf("%dx%d/%dx%d", s.w, s.h, s.tw, s.th), func(t *testing.T) {
			g := newTileGrid(s.w, s.h, s.tw, s.th)
			seen := make([]int, s.w*s.h)
			prevY0, prevX0 := -1, -1
			for i := 0; i < g.tiles(); i++ {
				r := g.tile(i)
				if r.X0 >= r.X1 || r.Y0 >= r.Y1 {
					t.Fatalf("tile %d is empty: %+v", i, r)
				}
				if r.X1 > s.w || r.Y1 > s.h {
					t.Fatalf("tile %d exceeds image: %+v", i, r)
				}
				if r.Y0 < prevY0 || (r.Y0 == prevY0 && r.X0 <= prevX0) {
					t.Fatalf("tile %d out of row-major order: %+v", i, r)
				}
				if r.Y0 > prevY0 {
					prevX0 = -1
				}
				prevY0, prevX0 = r.Y0, r.X0
				for y := r.Y0; y < r.Y1; y++ {
					for x := r.X0; x < r.X1; x++ {
						seen[y*s.w+x]++
					}
				}
			}
			for i, n := range seen {
				if n != 1 {
					t.Fatalf("pixel (%d,%d) covered %d times", i%s.w, i/s.w, n)
				}
			}
		})
	}
}

// TestChooseTileSize pins the cache model's shape: the side shrinks as
// the halo (template+search+semi-fluid reach) grows, shrinks as workers
// multiply (balance clamp), and never drops below the floor.
func TestChooseTileSize(t *testing.T) {
	big := Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 1}
	small := Params{NS: 1, NZS: 1, NZT: 1}
	if a, b := chooseTileSize(small, 4096, 4096, 1), chooseTileSize(big, 4096, 4096, 1); a <= b {
		t.Fatalf("larger halo should shrink the tile: small-halo %d, big-halo %d", a, b)
	}
	if a, b := chooseTileSize(small, 256, 256, 1), chooseTileSize(small, 256, 256, 64); a <= b {
		t.Fatalf("more workers should shrink the tile for balance: 1w %d, 64w %d", a, b)
	}
	if got := chooseTileSize(big, 256, 256, 1); got < tileMinSide {
		t.Fatalf("serial run should keep the floor %d, got %d", tileMinSide, got)
	}
	// Degenerate sizing (coarse pyramid levels): tiny grids must still
	// yield at least min(workers, pixels) tiles so no worker idles, even
	// when the halo term exceeds the grid — down to 1-pixel tiles.
	for _, c := range []struct{ w, h, workers int }{
		{8, 8, 2}, {8, 8, 4}, {8, 8, 64}, {4, 4, 64}, {16, 8, 4},
	} {
		side := chooseTileSize(big, c.w, c.h, c.workers)
		if side < 1 {
			t.Fatalf("%dx%d workers=%d: side %d underflows", c.w, c.h, c.workers, side)
		}
		g := newTileGrid(c.w, c.h, side, side)
		want := c.workers
		if px := c.w * c.h; px < want {
			want = px
		}
		if g.tiles() < want {
			t.Fatalf("%dx%d workers=%d side=%d: only %d tiles, want ≥ %d",
				c.w, c.h, c.workers, side, g.tiles(), want)
		}
	}
	// Balance bound: on a large image the chosen side leaves at least
	// tileBalanceFactor tiles per worker.
	for _, workers := range []int{1, 2, 4, 8, 16} {
		side := chooseTileSize(small, 1024, 1024, workers)
		g := newTileGrid(1024, 1024, side, side)
		if g.tiles() < tileBalanceFactor*workers {
			t.Fatalf("workers=%d side=%d: only %d tiles, want ≥ %d",
				workers, side, g.tiles(), tileBalanceFactor*workers)
		}
	}
}

// TestForEachTileRowCancellation cancels mid-run and asserts the row
// granularity contract: visited rows are whole (never a partial row —
// guaranteed structurally since the visitor is per-row), no new rows
// start after every worker has observed the cancel, the call returns
// ctx.Err(), and no goroutines leak.
func TestForEachTileRowCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	g := newTileGrid(64, 64, 8, 8)
	ctx, cancel := context.WithCancel(context.Background())
	var rows int64
	release := make(chan struct{})
	var once sync.Once
	err := forEachTileRow(ctx, g, 4, func() func(tile tileRect, y int) {
		return func(tile tileRect, y int) {
			atomic.AddInt64(&rows, 1)
			once.Do(func() {
				cancel()
				close(release)
			})
			<-release
		}
	})
	if err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	// Each of the 4 workers finishes at most the row it was on when the
	// cancel landed — the bound the serving deadline relies on.
	if n := atomic.LoadInt64(&rows); n > 4 {
		t.Fatalf("%d rows ran after cancellation, want ≤ workers (4)", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}
}

// TestTrackParallelCtxCancelled pins the driver-level behavior: a
// pre-cancelled context returns (nil, ctx.Err()) without tracking.
func TestTrackParallelCtxCancelled(t *testing.T) {
	s := synth.Hurricane(14, 14, 5)
	prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), contParams())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := TrackPreparedParallelCtx(ctx, prep, nil, Options{}, 2)
	if err != context.Canceled || res != nil {
		t.Fatalf("pre-cancelled run: res=%v err=%v, want (nil, context.Canceled)", res, err)
	}
}

// TestTileParallelBitIdentical sweeps tile shapes × worker counts over
// the tile-scheduled parallel driver and demands the bits of the serial
// kernel — the scheduling layer must be invisible in the output.
func TestTileParallelBitIdentical(t *testing.T) {
	p := testParams()
	s := synth.Hurricane(22, 22, 93)
	prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), p)
	if err != nil {
		t.Fatal(err)
	}
	sm := BuildSemiMap(prep)
	opt := Options{KeepMotion: true}
	want := TrackPrepared(prep, sm, opt)
	tiles := []struct{ tw, th int }{
		{0, 0},   // chooseTileSize default, through TrackPreparedParallel
		{1, 1},   // degenerate: one pixel per tile
		{5, 3},   // non-square, non-divisor of 22
		{22, 1},  // row strips (the old fan-out shape)
		{64, 64}, // single tile larger than the image
	}
	for _, tl := range tiles {
		for _, workers := range []int{1, 2, 3, 8} {
			name := fmt.Sprintf("tile=%dx%d/workers=%d", tl.tw, tl.th, workers)
			t.Run(name, func(t *testing.T) {
				var got *Result
				if tl.tw == 0 {
					got = TrackPreparedParallel(prep, sm, opt, workers)
				} else {
					var err error
					if got, err = trackTiled(context.Background(), prep, sm, opt, workers, tl.tw, tl.th); err != nil {
						t.Fatal(err)
					}
				}
				if !got.Flow.Equal(want.Flow) {
					t.Fatal("flow differs from serial kernel")
				}
				if !got.Err.Equal(want.Err) {
					t.Fatal("ε differs from serial kernel")
				}
				for i := range want.Motion {
					if !got.Motion[i].Equal(want.Motion[i]) {
						t.Fatalf("motion grid %d differs from serial kernel", i)
					}
				}
			})
		}
	}
}
