package main

// Every call into core's tracking entry points lives in this file, so a
// change to those entry points needs a benchmark follow-up here only.

import (
	"bytes"
	"context"

	"sma/internal/core"
	"sma/internal/server"
)

// prepFrame is the per-frame surface fit and geometric variables.
func prepFrame(f core.Frame, p core.Params) (*core.FramePrep, error) { return core.PrepareFrame(f, p) }

func assemble(f0, f1 *core.FramePrep) (*core.Prepared, error) { return core.AssemblePair(f0, f1) }

// preparePair prepares a whole pair in one call, the path independent of
// the per-frame cache the drivers use.
func preparePair(pair core.Pair, p core.Params) (*core.Prepared, error) { return core.Prepare(pair, p) }

func semiMap(prep *core.Prepared) *core.SemiMap { return core.BuildSemiMap(prep) }

// match runs the exhaustive hypothesis search the way the drivers route
// it, over workers row goroutines.
func match(ctx context.Context, prep *core.Prepared, sm *core.SemiMap, workers int) (*core.Result, error) {
	return core.TrackPreparedParallelCtx(ctx, prep, sm, core.Options{}, workers)
}

// referenceTrack is the retained naive kernel, the bit-exactness oracle
// for the exhaustive search.
func referenceTrack(prep *core.Prepared, sm *core.SemiMap) *core.Result {
	return core.TrackPreparedReference(prep, sm, core.Options{})
}

// offlineTrack is the sequential offline tracker served and cluster
// results must reproduce byte for byte.
func offlineTrack(pair core.Pair, p core.Params) (*core.Result, error) {
	return core.TrackSequential(pair, p, core.Options{})
}

// smf1 encodes a field in the binary SMF1 wire form the server returns.
func smf1(res *core.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := server.NewMotionField("", res).WriteBinary(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
