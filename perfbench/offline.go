package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"sma/internal/core"
	"sma/internal/eval"
	"sma/internal/grid"
	"sma/internal/stream"
	"sma/internal/synth"
)

// offlineCfg sizes one offline workload. Its inputs are short sequences,
// each rendered from its own scene seed and run as one driver call, so a
// run averages over many scenes; an independent pair is a sequence of
// two frames.
type offlineCfg struct {
	size        int
	p           core.Params
	seqs        int // sequences generated (cycled if the run outlasts them)
	frames      int // frames per sequence
	pairWorkers int
	rowWorkers  int
	sample      int // pairs checked against the oracle
	setups      int
}

func (c offlineCfg) streamConfig() stream.Config {
	return stream.Config{Params: c.p, Workers: c.pairWorkers, RowWorkers: c.rowWorkers}
}

// margin is the border excluded from truth comparisons: pixels whose
// fit, search or template windows leave the image.
func margin(p core.Params) int { return p.NS + p.NZS + p.NZT + p.NSS + p.NST }

// pairSemifluidCfg is the paper's Frederic-shaped case: independent
// stereo pairs with the semi-fluid model, one pair at a time, row
// workers = cores.
func pairSemifluidCfg(quick bool) offlineCfg {
	c := offlineCfg{size: 96, p: core.ScaledParams(), seqs: 24, frames: 2, pairWorkers: 1, rowWorkers: runtime.NumCPU(), sample: 2, setups: 5}
	if quick {
		c.size, c.seqs, c.sample, c.setups = 32, 2, 1, 2
	}
	return c
}

// sequence is one generated input: frames and the exact motion between
// consecutive frames (the scenes' flows are steady).
type sequence struct {
	frames []core.Frame
	truth  *grid.VectorField
}

// genOffline renders c.seqs sequences, each from a scene seeded from the
// run seed, on every core.
func genOffline(c offlineCfg, seed int64) []sequence {
	rng := rand.New(rand.NewSource(seed))
	seqs := make([]sequence, c.seqs)
	var tasks []func() error
	for i := range seqs {
		s := synth.Hurricane(c.size, c.size, rng.Int63())
		seqs[i] = sequence{frames: make([]core.Frame, c.frames), truth: s.Truth(1)}
		for t := range seqs[i].frames {
			tasks = append(tasks, func() error {
				img := s.Frame(float64(t))
				seqs[i].frames[t] = core.Frame{I: img, Z: s.Height(img)}
				return nil
			})
		}
	}
	_ = parallel(tasks) // rendering cannot fail
	return seqs
}

// warmUp pushes one small pair through the driver so lazy set-up (page
// faults, allocator growth) is paid before timing.
func warmUp(ctx context.Context, c offlineCfg, seed int64) error {
	w := c
	w.size, w.seqs, w.frames = max(40, 4*c.p.NZS), 1, 2
	_, _, err := stream.RunCtx(ctx, stream.Frames(genOffline(w, seed)[0].frames), c.streamConfig())
	return err
}

// offlineRun is the state of one offline workload run.
type offlineRun struct {
	e    *env
	c    offlineCfg
	seqs []sequence
	want [][]byte // oracle SMF1 of the first c.sample pairs
	r    *report
	got  map[int][]byte // SHA-256 of the untraced output per pair
	se   float64        // truth squared error over sn pixels
	sn   int
	seen map[int]bool // pairs already scored against the truth
}

// pairOf maps a global pair index onto its sequence and frame.
func (o *offlineRun) pairOf(k int) (seq, t int) {
	per := o.c.frames - 1
	return (k / per) % len(o.seqs), k % per
}

// oracle computes the expected SMF1 bytes of the first c.sample pairs
// through a path independent of the driver: whole-pair preparation and
// the reference kernel.
func (o *offlineRun) oracle() error {
	c := o.c
	o.want = make([][]byte, c.sample)
	var tasks []func() error
	for k := range o.want {
		tasks = append(tasks, func() error {
			s, t := o.pairOf(k)
			f0, f1 := o.seqs[s].frames[t], o.seqs[s].frames[t+1]
			prep, err := preparePair(core.Pair{I0: f0.I, I1: f1.I, Z0: f0.Surface(), Z1: f1.Surface()}, c.p)
			if err != nil {
				return err
			}
			o.want[k], err = smf1(referenceTrack(prep, semiMap(prep)))
			return err
		})
	}
	return parallel(tasks)
}

// truthRMSE returns the squared flow error against the exact motion
// summed over interior pixels, and their count.
func truthRMSE(f, truth *grid.VectorField, m int) (sum float64, n int) {
	w, h := f.U.Bounds()
	for y := m; y < h-m; y++ {
		for x := m; x < w-m; x++ {
			u, v := f.At(x, y)
			tu, tv := truth.At(x, y)
			du, dv := float64(u-tu), float64(v-tv)
			sum += du*du + dv*dv
			n++
		}
	}
	return sum, n
}

// verify checks pair k's output against the oracle when sampled and
// against the untraced output when traced, and scores it against the
// truth the first time it is seen. It returns the SMF1 bytes.
func (o *offlineRun) verify(k int, res *core.Result, traced bool) []byte {
	o.r.attempted++
	b, err := smf1(res)
	if err != nil {
		o.r.fail(o.e, "pair %d: encoding: %v", k, err)
		return nil
	}
	if k < len(o.want) && !o.e.check(b, o.want[k]) {
		o.r.fail(o.e, "pair %d: SMF1 differs from the oracle", k)
	}
	sum := sha256.Sum256(b)
	if prev, ok := o.got[k]; ok && !o.e.check(sum[:], prev) {
		o.r.fail(o.e, "pair %d: SMF1 differs between runs (traced=%v)", k, traced)
	}
	if !traced {
		o.got[k] = sum[:]
	}
	if !o.seen[k] {
		o.seen[k] = true
		s, _ := o.pairOf(k)
		se, n := truthRMSE(res.Flow, o.seqs[s].truth, margin(o.c.p))
		o.se += se
		o.sn += n
	}
	return b
}

// runOffline sets up, checks the oracle, and drives sequence after
// sequence through stream.RunCtx until the time is up. Latency is per
// driver call: from handing the sequence to the driver until its last
// field is delivered (for an independent pair, the pair's latency).
func runOffline(ctx context.Context, e *env, c offlineCfg) (*report, error) {
	o := &offlineRun{e: e, c: c, r: newReport(), got: map[int][]byte{}, seen: map[int]bool{}}
	setup, err := timeSetups(c.setups, func(bool) error {
		o.seqs = genOffline(c, e.seed)
		return warmUp(ctx, c, e.seed)
	})
	if err != nil {
		return nil, err
	}
	o.r.e2e["setup_s"] = sampled("s", setup)
	if err := o.oracle(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	var lat []float64
	var busy time.Duration
	var st stream.Stats
	per := c.frames - 1
	deadline := time.Now().Add(e.seconds)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		t0 := time.Now()
		results, s, err := stream.RunCtx(ctx, stream.Frames(o.seqs[n%len(o.seqs)].frames), c.streamConfig())
		d := time.Since(t0)
		busy += d
		lat = append(lat, ms(d))
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		st.FitsComputed += s.FitsComputed
		st.PairsTracked += s.PairsTracked
		if len(results) != per {
			o.r.attempted++
			o.r.fail(e, "sequence %d: %d fields for %d pairs", n, len(results), per)
		}
		for t, res := range results {
			o.verify(n*per+t, res, false)
		}
	}
	o.r.e2e["pairs_per_s"] = scalar("pairs/s", float64(st.PairsTracked)/busy.Seconds())
	o.r.e2e["latency_p50_ms"] = sampled("ms", lat)
	o.r.e2e["truth_rmse_px"] = scalar("px", math.Sqrt(o.se/float64(max(o.sn, 1))))
	if e.trace {
		traceOffline(ctx, o, st, median(lat))
	}
	return o.r, nil
}

// runPairSemifluid: most time is in semimap; the stream cache, pyramid,
// server and journal are bypassed.
func runPairSemifluid(ctx context.Context, e *env) (*report, error) {
	return runOffline(ctx, e, pairSemifluidCfg(e.quick))
}

// tracedPair is one assembled pair on its way through the traced
// composition.
type tracedPair struct {
	k           int
	root, queue int64
	prep        *core.Prepared
}

// traceOffline repeats the workload for --seconds composing the same
// public calls the driver makes — per-frame prep (each frame once, as the
// stream's cache does), assemble, semimap, match, encode — with a span
// around each, at the driver's pair and row concurrency, one sequence at
// a time. Its SMF1 bytes must equal the untraced run's.
func traceOffline(ctx context.Context, o *offlineRun, st stream.Stats, untracedP50 float64) {
	e, c, r := o.e, o.c, o.r
	tr := newTracer()
	r.tr = tr

	var mu sync.Mutex // guards the measurements below and o
	var cpuUtil, entries, encodeUs, smfBytes, latMs []float64
	// process is the consumer half: semimap, match and encode one pair.
	process := func(it tracedPair) {
		op := fmt.Sprint("pair-", it.k)
		tr.end(it.queue)
		s := tr.begin("semimap", it.root, op)
		sm := semiMap(it.prep)
		tr.end(s)
		cpu0, t0 := cpuTime(), time.Now()
		s = tr.begin("match", it.root, op)
		res, err := match(ctx, it.prep, sm, c.rowWorkers)
		tr.end(s)
		wall := time.Since(t0)
		util := float64(cpuTime()-cpu0) / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
		if err != nil {
			tr.end(it.root)
			mu.Lock()
			r.attempted++
			r.fail(e, "traced pair %d: %v", it.k, err)
			mu.Unlock()
			return
		}
		s = tr.begin("codec.encode", it.root, op)
		t1 := time.Now()
		b, _ := smf1(res) // an encoding error is reported by verify
		enc := time.Since(t1)
		tr.end(s)
		tr.end(it.root)
		mu.Lock()
		defer mu.Unlock()
		o.verify(it.k, res, true)
		cpuUtil = append(cpuUtil, util)
		encodeUs = append(encodeUs, us(enc))
		smfBytes = append(smfBytes, float64(len(b)))
		entries = append(entries, float64(it.prep.W*it.prep.H*c.p.Hypotheses()))
	}

	// runSeq mirrors one RunCtx call: a producer that prepares each
	// frame once and assembles pairs in order, feeding pairWorkers
	// consumers through a queue as deep as the stream's window. A pair's
	// root span starts when the producer starts on it.
	fits := 0
	runSeq := func(n int) error {
		per := c.frames - 1
		items := make(chan tracedPair, c.pairWorkers)
		var wg sync.WaitGroup
		for w := 0; w < c.pairWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := range items {
					process(it)
				}
			}()
		}
		defer func() {
			close(items)
			wg.Wait()
		}()
		frames := o.seqs[n%len(o.seqs)].frames
		var prev *core.FramePrep
		for t := 0; t < per; t++ {
			k := n*per + t
			op := fmt.Sprint("pair-", k)
			root := tr.begin("pair", 0, op)
			prepOne := func(f core.Frame) (*core.FramePrep, error) {
				s := tr.begin("prep", root, op)
				defer tr.end(s)
				fits++
				return prepFrame(f, c.p)
			}
			var err error
			if prev == nil {
				if prev, err = prepOne(frames[t]); err != nil {
					tr.end(root)
					return err
				}
			}
			cur, err := prepOne(frames[t+1])
			if err != nil {
				tr.end(root)
				return err
			}
			s := tr.begin("prep.assemble", root, op)
			prep, err := assemble(prev, cur)
			tr.end(s)
			if err != nil {
				tr.end(root)
				return err
			}
			prev = cur
			items <- tracedPair{k: k, root: root, queue: tr.begin("stream.queue", root, op), prep: prep}
		}
		return nil
	}
	deadline := time.Now().Add(e.seconds)
	seqs := 0
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		t0 := time.Now()
		err := runSeq(n)
		latMs = append(latMs, ms(time.Since(t0)))
		if err != nil {
			mu.Lock()
			r.attempted++
			r.fail(e, "traced sequence %d: %v", n, err)
			mu.Unlock()
		}
		seqs++
	}

	prepMs := tr.named("prep")
	semiMs := tr.named("semimap")
	matchMs := tr.named("match")
	r.layer["prep.ms_per_frame"] = sampled("ms", prepMs)
	if st.PairsTracked > 0 {
		r.layer["prep.fits_per_pair"] = scalar("count", float64(st.FitsComputed)/float64(st.PairsTracked))
	}
	r.layer["semimap.ms_per_pair"] = sampled("ms", semiMs)
	r.layer["semimap.ns_per_entry"] = scalar("ns", sum(semiMs)*1e6/sum(entries))
	r.layer["match.ms_per_pair"] = sampled("ms", matchMs)
	r.layer["match.ns_per_hyp"] = scalar("ns", sum(matchMs)*1e6/sum(entries))
	r.layer["match.hyp_per_px"] = scalar("count", sum(entries)/float64(max(len(entries), 1)*c.size*c.size))
	r.layer["match.cpu_util"] = sampled("ratio", cpuUtil)
	r.layer["codec.smf1_encode_us"] = sampled("us", encodeUs)
	r.layer["codec.smf1_bytes"] = sampled("B", smfBytes)
	r.layer["trace.overhead_ms"] = scalar("ms", median(latMs)-untracedP50)
	r.notes["traced_fits_per_pair"] = float64(fits) / float64(max(seqs*(c.frames-1), 1))
	summarizeTrace(e, r, "pair")
	table2(e, r, prepMs, semiMs, matchMs, tr.named("prep.assemble"))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// table2 prints the measured host breakdown beside the modeled MP-2 rows
// of the paper's Table 2, as per-pair milliseconds and shares of total.
// Surface fit and geometric variables share one measured row until the
// program times them separately.
func table2(e *env, r *report, prepMs, semiMs, matchMs, asmMs []float64) {
	prep := 2*median(prepMs) + median(asmMs) // two frames per independent pair
	rows := []struct {
		name     string
		host     float64
		subrouts []string
	}{
		{"surface fit + geometric variables (prep)", prep, []string{"Surface fit", "Compute geometric variables"}},
		{"semi-fluid mapping (semimap)", median(semiMs), []string{"Semi-fluid mapping"}},
		{"hypothesis matching (match)", median(matchMs), []string{"Hypothesis matching"}},
	}
	total := 0.0
	for _, row := range rows {
		total += row.host
	}
	model, err := eval.Table2()
	if err != nil {
		e.logf("note: modeled Table 2 unavailable: %v", err)
		return
	}
	modeled := func(names []string) (m, p time.Duration) {
		for _, row := range model.Rows {
			for _, n := range names {
				if row.Subroutine == n {
					m += row.Modeled
					p += row.Paper
				}
			}
		}
		return m, p
	}
	var mtotal, ptotal time.Duration
	for _, row := range rows {
		m, p := modeled(row.subrouts)
		mtotal += m
		ptotal += p
	}
	type line struct {
		Row         string  `json:"row"`
		HostMs      float64 `json:"host_ms_per_pair"`
		HostShare   float64 `json:"host_share"`
		ModeledS    float64 `json:"modeled_mp2_s"`
		ModeledShar float64 `json:"modeled_share"`
		PaperS      float64 `json:"paper_mp2_s"`
	}
	var lines []line
	e.logf("Table 2, measured on this host (%dx%d, %d cores) vs modeled MP-2 (%dx%d):", pairSemifluidCfg(e.quick).size, pairSemifluidCfg(e.quick).size, runtime.NumCPU(), model.ImageW, model.ImageH)
	e.logf("  %-42s %12s %7s %14s %7s %12s", "row", "host ms/pair", "share", "MP-2 model s", "share", "paper s")
	for _, row := range rows {
		m, p := modeled(row.subrouts)
		l := line{row.name, row.host, row.host / total, m.Seconds(), float64(m) / float64(mtotal), p.Seconds()}
		lines = append(lines, l)
		e.logf("  %-42s %12.2f %6.1f%% %14.2f %6.1f%% %12.2f", l.Row, l.HostMs, 100*l.HostShare, l.ModeledS, 100*l.ModeledShar, l.PaperS)
	}
	e.logf("  %-42s %12.2f %7s %14.2f %7s %12.2f", "total", total, "", mtotal.Seconds(), "", ptotal.Seconds())
	r.notes["table2"] = lines
}
