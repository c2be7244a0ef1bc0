package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sma/internal/core"
	"sma/internal/grid"
	"sma/internal/journal"
	"sma/internal/server"
	"sma/internal/synth"
)

// serveCfg fixes the serve-mixed traffic. The arrival rate and the
// goodput latency limit are constants of the benchmark, never derived
// from the code under test. The server runs one tracking worker with one
// row worker (see startServe); at 1.0 arrivals/s, one in 16 a job, that
// worker is about 30% busy (a 48px track costs ~0.2 s, an 8-frame job
// ~1.5 s). At 45-60% busy, the slowdowns of a shared host pushed the
// queue toward saturation often enough to spread the median latency by
// 30-60% from run to run.
type serveCfg struct {
	size        int
	rate        float64 // arrivals per second
	jobEvery    int     // every jobEvery-th arrival is a durable job
	jobFrames   int
	trackInputs int // distinct track uploads, cycled
	jobRefs     int // distinct job sequences, cycled
	setups      int
}

func serveMixedCfg(quick bool) serveCfg {
	c := serveCfg{size: 48, rate: 1.0, jobEvery: 16, jobFrames: 8, trackInputs: 24, jobRefs: 2, setups: 5}
	if quick {
		c.size, c.rate, c.jobEvery, c.jobFrames, c.trackInputs, c.jobRefs, c.setups = 24, 8, 3, 3, 2, 1, 2
	}
	return c
}

// goodputLimit is the latency a sync track must meet to count toward
// serve.track_goodput_rps.
const goodputLimit = 1000 * time.Millisecond

type trackInput struct {
	body, pgm []byte
	ctype     string
	pair      core.Pair
	truth     *grid.VectorField
	res       *core.Result // oracle field
	want      []byte       // oracle SMF1
}

type jobInput struct {
	body []byte
	want []byte // oracle SMP1 result stream
	se   float64
	n    int // truth squared error over n interior pixels of the oracle
}

type arrival struct {
	due   time.Duration
	job   bool
	input int
}

type serveInputs struct {
	tracks   []trackInput
	jobs     []jobInput
	arrivals []arrival
}

// genServe builds every request from the seed: PGM uploads, job specs,
// and the arrival schedule — a Poisson process conditioned on its count
// (uniform arrival times), so every seed offers the same load.
func genServe(c serveCfg, seed int64, seconds time.Duration) (serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	var in serveInputs
	for i := 0; i < c.trackInputs; i++ {
		t, err := buildTrack(c.size, rng.Int63())
		if err != nil {
			return in, err
		}
		in.tracks = append(in.tracks, t)
	}
	for i := 0; i < c.jobRefs; i++ {
		req := server.JobRequest{Synthetic: &server.SyntheticRef{Scene: "hurricane", Size: c.size, Seed: rng.Int63(), Frames: c.jobFrames}, Retain: true}
		body, err := json.Marshal(req)
		if err != nil {
			return in, err
		}
		in.jobs = append(in.jobs, jobInput{body: body})
	}
	n := int(math.Round(c.rate * seconds.Seconds()))
	dues := make([]float64, max(n, 1))
	for i := range dues {
		dues[i] = rng.Float64() * seconds.Seconds()
	}
	sort.Float64s(dues)
	for i, d := range dues {
		a := arrival{due: time.Duration(d * float64(time.Second)), job: i%c.jobEvery == c.jobEvery-1}
		if a.job {
			a.input = rng.Intn(len(in.jobs))
		} else {
			a.input = rng.Intn(len(in.tracks))
		}
		in.arrivals = append(in.arrivals, a)
	}
	return in, nil
}

// buildTrack renders a hurricane pair as the multipart PGM upload of
// POST /v1/track (binary response), with a boundary derived from the
// seed so the bytes are a function of the seed. The pair kept for the
// oracle is what the server decodes: the 8-bit PGM quantization.
func buildTrack(size int, seed int64) (trackInput, error) {
	scene := synth.Hurricane(size, size, seed)
	t := trackInput{truth: scene.Truth(1)}
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.SetBoundary(fmt.Sprintf("perfbench-%016x", uint64(seed))); err != nil {
		return t, err
	}
	var imgs [2]*grid.Grid
	for i, name := range []string{"i0", "i1"} {
		var pgm bytes.Buffer
		if err := scene.Frame(float64(i)).WritePGM(&pgm); err != nil {
			return t, err
		}
		w, err := mw.CreateFormFile(name, name+".pgm")
		if err != nil {
			return t, err
		}
		if _, err := w.Write(pgm.Bytes()); err != nil {
			return t, err
		}
		if imgs[i], err = grid.ReadPGM(bytes.NewReader(pgm.Bytes())); err != nil {
			return t, err
		}
		if i == 0 {
			t.pgm = pgm.Bytes()
		}
	}
	if err := mw.WriteField("format", "binary"); err != nil {
		return t, err
	}
	if err := mw.Close(); err != nil {
		return t, err
	}
	t.body, t.ctype, t.pair = buf.Bytes(), mw.FormDataContentType(), core.Monocular(imgs[0], imgs[1])
	return t, nil
}

// serveOracle computes every expected output with the offline tracker:
// each upload's field, and each job's merged result stream.
func serveOracle(c serveCfg, in *serveInputs) error {
	var tasks []func() error
	p := core.ScaledParams()
	for i := range in.tracks {
		t := &in.tracks[i]
		tasks = append(tasks, func() error {
			res, err := offlineTrack(t.pair, p)
			if err != nil {
				return err
			}
			t.res = res
			t.want, err = smf1(res)
			return err
		})
	}
	for i := range in.jobs {
		j := &in.jobs[i]
		tasks = append(tasks, func() error {
			var req server.JobRequest
			if err := json.Unmarshal(j.body, &req); err != nil {
				return err
			}
			var err error
			j.want, j.se, j.n, err = offlineStream(*req.Synthetic, p)
			return err
		})
	}
	return parallel(tasks)
}

// offlineStream renders a synthetic job's expected SMP1 result stream
// pair by pair with the offline tracker, and scores it against the truth.
func offlineStream(ref server.SyntheticRef, p core.Params) (stream []byte, se float64, n int, err error) {
	scene, err := ref.SceneOf()
	if err != nil {
		return nil, 0, 0, err
	}
	truth := scene.Truth(1)
	fields := make([][]byte, ref.Frames-1)
	for i := range fields {
		res, err := offlineTrack(core.Monocular(scene.Frame(float64(ref.T0+i)), scene.Frame(float64(ref.T0+i+1))), p)
		if err != nil {
			return nil, 0, 0, err
		}
		if fields[i], err = smf1(res); err != nil {
			return nil, 0, 0, err
		}
		s, k := truthRMSE(res.Flow, truth, margin(p))
		se, n = se+s, n+k
	}
	var out bytes.Buffer
	err = server.WritePairStream(&out, fields, nil)
	return out.Bytes(), se, n, err
}

// parallel runs tasks on one goroutine per core and returns the first error.
func parallel(tasks []func() error) error {
	next := make(chan func() error)
	errs := make(chan error, len(tasks))
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				errs <- t()
			}
		}()
	}
	for _, t := range tasks {
		next <- t
	}
	close(next)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// serveRig is a running in-process durable smaserve on loopback.
type serveRig struct {
	srv    *server.Server
	h      *tracedHandler
	hs     *http.Server
	served chan error
	base   string
	dir    string
	client *http.Client
}

func quiet(string, ...any) {}

func startServe(ctx context.Context, e *env) (*serveRig, error) {
	dir, err := os.MkdirTemp(e.tmp, "serve-")
	if err != nil {
		return nil, err
	}
	// One worker, one row worker: tracks and jobs queue for a single
	// tracking thread. With the default two workers, a track that ran
	// beside a job shared the host's second vCPU, whose speed swung from
	// minute to minute, and the median track latency spread twice as
	// widely between runs.
	srv, err := server.Open(server.Config{DataDir: dir, Logf: quiet, Workers: 1, RowWorkers: 1})
	if err != nil {
		return nil, err
	}
	if _, err := srv.Recover(ctx); err != nil {
		return nil, err
	}
	rig := &serveRig{srv: srv, h: &tracedHandler{name: "serve.handler", next: srv.Handler()}, dir: dir}
	if err := rig.listen(); err != nil {
		return nil, err
	}
	return rig, nil
}

// listen serves the wrapped handler on a loopback port and builds a
// client limited to one connection per core.
func (rig *serveRig) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	rig.hs = &http.Server{Handler: rig.h, ReadHeaderTimeout: 10 * time.Second}
	rig.served = make(chan error, 1)
	go func() { rig.served <- rig.hs.Serve(ln) }()
	rig.base = "http://" + ln.Addr().String()
	n := runtime.NumCPU()
	rig.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}}
	return nil
}

// close drains the HTTP listener and the server, leaving the data dir.
func (rig *serveRig) close(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	rig.client.CloseIdleConnections()
	err := rig.hs.Shutdown(ctx)
	if err := <-rig.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(err, rig.srv.Shutdown(ctx))
}

// retryDelay honors Retry-After the way smaload does: the header's
// seconds capped at 2s (100ms without one), jittered over the upper half.
func retryDelay(resp *http.Response, rng *rand.Rand) time.Duration {
	d := 100 * time.Millisecond
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec >= 0 {
		d = min(time.Duration(sec)*time.Second, 2*time.Second)
	}
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// phase is what one pass of the arrival schedule measured.
type phase struct {
	mu         sync.Mutex
	trackLat   []float64 // ms from due time to the verified last byte
	jobLat     []float64 // s from due time to the verified result
	genLag     []float64 // ms from due time to a free connection
	pairs      int
	requests   int
	retries    int
	backoff    time.Duration
	views      []server.JobView
	trackRMSE  map[int]float64
	start, end time.Time
}

// client is one generator pass over the schedule.
type client struct {
	e      *env
	hc     *http.Client
	base   string
	plane  string // layer that owns the job API: serve or cluster
	in     *serveInputs
	r      *report
	tr     *tracer
	sem    chan struct{} // one token per client connection
	giveUp time.Time
	ph     *phase
}

// do performs one request with backoff: it waits for a connection
// (client.gen_wait), sends (client.attempt, whose server side is the
// handler span), and sleeps out Retry-After on 429/503 (client.backoff).
// When due is set, ready is the arrival's due time and the wait for the
// first connection is recorded as generator lag.
func (cl *client) do(root int64, op string, rng *rand.Rand, ready time.Time, due bool, build func() (*http.Request, error), wantCode int) ([]byte, *http.Response, error) {
	for first := true; ; first = false {
		w := cl.tr.beginAt("client.gen_wait", root, op, ready)
		cl.sem <- struct{}{}
		cl.tr.end(w)
		if first && due {
			cl.ph.mu.Lock()
			cl.ph.genLag = append(cl.ph.genLag, ms(time.Since(ready)))
			cl.ph.mu.Unlock()
		}
		att := cl.tr.begin("client.attempt", root, op)
		req, err := build()
		if err != nil {
			<-cl.sem
			cl.tr.end(att)
			return nil, nil, err
		}
		req.Header.Set(spanHeader, strconv.FormatInt(att, 10))
		req.Header.Set(opHeader, op)
		resp, err := cl.hc.Do(req)
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		cl.tr.endAt(att, time.Now(), int64(len(body)))
		<-cl.sem
		cl.ph.mu.Lock()
		cl.ph.requests++
		cl.ph.mu.Unlock()
		if err != nil {
			return nil, nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			d := retryDelay(resp, rng)
			if time.Now().Add(d).After(cl.giveUp) {
				return nil, resp, fmt.Errorf("still refused (HTTP %d) at the deadline", resp.StatusCode)
			}
			b := cl.tr.begin("client.backoff", root, op)
			time.Sleep(d)
			cl.tr.end(b)
			cl.ph.mu.Lock()
			cl.ph.retries++
			cl.ph.backoff += d
			cl.ph.mu.Unlock()
			ready = time.Now()
			continue
		}
		if resp.StatusCode != wantCode {
			return nil, resp, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body[:min(len(body), 200)]))
		}
		return body, resp, nil
	}
}

func (cl *client) track(i int, a arrival, due time.Time) {
	op := fmt.Sprint("track-", i)
	root := cl.tr.beginAt("request", 0, op, due)
	defer cl.tr.end(root)
	t := &cl.in.tracks[a.input]
	rng := rand.New(rand.NewSource(cl.e.seed + int64(i+1)*0x9e3779b9)) // per-request backoff jitter
	body, _, err := cl.do(root, op, rng, due, true, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, cl.base+"/v1/track", bytes.NewReader(t.body))
		if err == nil {
			req.Header.Set("Content-Type", t.ctype)
		}
		return req, err
	}, http.StatusOK)
	lat := time.Since(due)
	cl.ph.mu.Lock()
	defer cl.ph.mu.Unlock()
	cl.r.attempted++
	if err != nil {
		cl.r.fail(cl.e, "%s: %v", op, err)
		return
	}
	field, err := server.ReadBinaryMotionField(bytes.NewReader(body))
	if err != nil {
		cl.r.fail(cl.e, "%s: decoding: %v", op, err)
		return
	}
	field.ID = "" // the server names its results; the payload must match
	var buf bytes.Buffer
	if err := field.WriteBinary(&buf); err != nil || !cl.e.check(buf.Bytes(), t.want) {
		cl.r.fail(cl.e, "%s: served field differs from the offline tracker", op)
		return
	}
	if _, ok := cl.ph.trackRMSE[a.input]; !ok {
		flow, _, err := field.Flow()
		if err == nil {
			s, n := truthRMSE(flow, t.truth, margin(core.ScaledParams()))
			cl.ph.trackRMSE[a.input] = s / float64(max(n, 1))
		}
	}
	cl.ph.trackLat = append(cl.ph.trackLat, ms(lat))
	cl.ph.pairs++
}

func (cl *client) job(i int, a arrival, due time.Time) {
	op := fmt.Sprint("job-", i)
	root := cl.tr.beginAt("job", 0, op, due)
	defer cl.tr.end(root)
	j := &cl.in.jobs[a.input]
	rng := rand.New(rand.NewSource(cl.e.seed + int64(i+1)*0x9e3779b9)) // per-request backoff jitter
	view, observed, err := cl.runJob(root, op, rng, due, j.body)
	var body []byte
	if err == nil {
		body, _, err = cl.do(root, op, rng, observed, false, func() (*http.Request, error) {
			return http.NewRequest(http.MethodGet, cl.base+"/v1/jobs/"+view.ID+"/result", nil)
		}, http.StatusOK)
	}
	v := cl.tr.begin("client.verify", root, op)
	ok := err == nil && cl.e.check(body, j.want)
	cl.tr.end(v)
	lat := time.Since(due)
	cl.ph.mu.Lock()
	defer cl.ph.mu.Unlock()
	cl.r.attempted++
	switch {
	case err != nil:
		cl.r.fail(cl.e, "%s: %v", op, err)
	case !ok:
		cl.r.fail(cl.e, "%s: result stream differs from the offline tracker", op)
	default:
		cl.ph.jobLat = append(cl.ph.jobLat, lat.Seconds())
		cl.ph.pairs += view.Frames - 1
		cl.ph.views = append(cl.ph.views, view)
	}
}

// runJob submits a job and polls it to a terminal status, recording its
// queue and run intervals from the JobView timestamps. It returns when
// the client observed the end.
func (cl *client) runJob(root int64, op string, rng *rand.Rand, due time.Time, spec []byte) (server.JobView, time.Time, error) {
	var view server.JobView
	body, _, err := cl.do(root, op, rng, due, true, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, cl.base+"/v1/jobs", bytes.NewReader(spec))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	}, http.StatusAccepted)
	if err != nil {
		return view, time.Time{}, err
	}
	if err := json.Unmarshal(body, &view); err != nil {
		return view, time.Time{}, err
	}
	return pollJob(cl.hc, cl.sem, cl.base, view.ID, cl.giveUp, cl.tr, root, op, cl.plane)
}

// pollJob polls GET /v1/jobs/{id} until the job ends or giveUp passes;
// polls share the client's connections but record no spans of their own
// (the job's queue and run spans cover them).
func pollJob(hc *http.Client, sem chan struct{}, base, id string, giveUp time.Time, tr *tracer, root int64, op, plane string) (server.JobView, time.Time, error) {
	var view server.JobView
	for {
		if time.Now().After(giveUp) {
			return view, time.Time{}, fmt.Errorf("job %s still %q at the deadline", id, view.Status)
		}
		time.Sleep(20 * time.Millisecond)
		sem <- struct{}{}
		resp, err := hc.Get(base + "/v1/jobs/" + id)
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("polling %s: HTTP %d", id, resp.StatusCode)
			}
		}
		<-sem
		if err != nil {
			return view, time.Time{}, err
		}
		if err := json.Unmarshal(body, &view); err != nil {
			return view, time.Time{}, err
		}
		switch view.Status {
		case server.JobQueued, server.JobRunning:
			continue
		}
		observed := time.Now()
		if view.Status != server.JobDone || view.Started == nil || view.Finished == nil {
			return view, observed, fmt.Errorf("job %s ended %q: %s", id, view.Status, view.Error)
		}
		tr.add(plane+".job_queue", root, op, view.Created, *view.Started)
		tr.add(plane+".job_run", root, op, *view.Started, *view.Finished)
		tr.add("client.poll_lag", root, op, *view.Finished, observed)
		return view, observed, nil
	}
}

// run plays the arrival schedule open-loop: each request is started at
// its due time, waits in the generator when every connection is busy,
// and is timed from its due time.
func (cl *client) run(ctx context.Context) {
	ph := cl.ph
	ph.start = time.Now()
	cl.giveUp = ph.start.Add(cl.e.seconds + 60*time.Second)
	var wg sync.WaitGroup
	for i, a := range cl.in.arrivals {
		due := ph.start.Add(a.due)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			if a.job {
				cl.job(i, a, due)
			} else {
				cl.track(i, a, due)
			}
		}(i, a, due)
	}
	wg.Wait()
	ph.end = time.Now()
}

// runPhase plays the schedule once; tr nil is the untraced pass.
func runPhase(ctx context.Context, e *env, rig *serveRig, in *serveInputs, r *report, tr *tracer) *phase {
	ph := &phase{trackRMSE: map[int]float64{}}
	cl := &client{e: e, hc: rig.client, base: rig.base, plane: "serve", in: in, r: r, tr: tr, sem: make(chan struct{}, runtime.NumCPU()), ph: ph}
	cl.run(ctx)
	return ph
}

// runServeMixed: an in-process durable smaserve under open-loop Poisson
// traffic of sync tracks with a durable job every jobEvery-th arrival,
// both verified against the offline tracker.
func runServeMixed(ctx context.Context, e *env) (*report, error) {
	c := serveMixedCfg(e.quick)
	r := newReport()
	var in serveInputs
	var rig *serveRig
	setup, err := timeSetups(c.setups, func(last bool) error {
		var err error
		if in, err = genServe(c, e.seed, e.seconds); err != nil {
			return err
		}
		rg, err := startServe(ctx, e)
		if err != nil {
			return err
		}
		// Warm-up: one track through the whole HTTP path.
		_, _, err = (&client{e: e, hc: rg.client, base: rg.base, in: &in, sem: make(chan struct{}, 1), ph: &phase{}, giveUp: time.Now().Add(time.Minute)}).do(0, "warm-up", rand.New(rand.NewSource(e.seed)), time.Now(), false, func() (*http.Request, error) {
			req, err := http.NewRequest(http.MethodPost, rg.base+"/v1/track", bytes.NewReader(in.tracks[0].body))
			if err == nil {
				req.Header.Set("Content-Type", in.tracks[0].ctype)
			}
			return req, err
		}, http.StatusOK)
		if err != nil || !last {
			return errors.Join(err, rg.close(ctx), os.RemoveAll(rg.dir))
		}
		rig = rg
		return nil
	})
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			_ = rig.close(ctx) // error path: the run has already failed
		}
		os.RemoveAll(rig.dir)
	}()
	r.e2e["setup_s"] = sampled("s", setup)
	if err := serveOracle(c, &in); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	ph := runPhase(ctx, e, rig, &in, r, nil)
	r.e2e["latency_p50_ms"] = sampled("ms", ph.trackLat)
	r.e2e["pairs_per_s"] = scalar("pairs/s", float64(ph.pairs)/ph.end.Sub(ph.start).Seconds())
	var mse []float64
	for _, v := range ph.trackRMSE {
		mse = append(mse, v)
	}
	r.e2e["truth_rmse_px"] = scalar("px", math.Sqrt(mean(mse)))
	if !e.trace {
		closed = true
		return r, rig.close(ctx)
	}

	// Per-layer figures that need the untraced pass: the tail, goodput
	// against the fixed limit, and job latency.
	r.layer["serve.track_p90_ms"] = tail("ms", ph.trackLat, 0.90)
	within := 0
	for _, l := range ph.trackLat {
		if l <= ms(goodputLimit) {
			within++
		}
	}
	r.layer["serve.track_goodput_rps"] = scalar("1/s", float64(within)/e.seconds.Seconds())
	r.layer["serve.job_p50_s"] = sampled("s", ph.jobLat)
	r.notes["goodput_limit_ms"] = ms(goodputLimit)

	tr := newTracer()
	r.tr = tr
	rig.h.tr.Store(tr)
	stop := make(chan struct{})
	depth := make(chan []float64)
	go func() { depth <- sampleQueueDepth(rig.srv.Handler(), stop) }()
	ph2 := runPhase(ctx, e, rig, &in, r, tr)
	close(stop)
	depths := <-depth
	rig.h.tr.Store(nil)

	spans := tr.spans()
	handler := map[int64]span{}
	for _, s := range spans {
		if s.Name == "serve.handler" {
			handler[s.Parent] = s
		}
	}
	var handlerMs, transportMs []float64
	for _, s := range spans {
		if h, ok := handler[s.ID]; ok && s.Name == "client.attempt" && strings.HasPrefix(s.Op, "track-") {
			handlerMs = append(handlerMs, ms(h.dur()))
			transportMs = append(transportMs, ms(s.dur()-h.dur()))
		}
	}
	r.layer["serve.handler_ms_p50"] = sampled("ms", handlerMs)
	r.layer["serve.transport_ms_p50"] = sampled("ms", transportMs)
	r.layer["serve.backoff_ms_per_req"] = scalar("ms", ms(ph2.backoff)/float64(max(ph2.requests, 1)))
	r.layer["serve.retries_per_req"] = scalar("count", float64(ph2.retries)/float64(max(ph2.requests, 1)))
	r.layer["serve.queue_depth_mean"] = scalar("count", mean(depths))
	r.layer["serve.gen_lag_ms_p90"] = tail("ms", ph2.genLag, 0.90)
	queue, run := jobIntervals(ph2.views)
	r.layer["serve.job_queue_wait_ms"] = sampled("ms", queue)
	r.layer["serve.job_run_ms"] = sampled("ms", run)
	r.layer["trace.overhead_ms"] = scalar("ms", median(ph2.trackLat)-median(ph.trackLat))
	codecTimes(r, in.tracks)
	summarizeTrace(e, r, "request", "job")

	closed = true
	if err := rig.close(ctx); err != nil {
		return nil, err
	}
	jobs := len(ph.views) + len(ph2.views)
	if err := durableStats(e, r, rig.dir, jobs); err != nil {
		return nil, err
	}
	return r, nil
}

// jobIntervals splits JobViews into queue wait and run time (ms).
func jobIntervals(views []server.JobView) (queue, run []float64) {
	for _, v := range views {
		if v.Started != nil && v.Finished != nil {
			queue = append(queue, ms(v.Started.Sub(v.Created)))
			run = append(run, ms(v.Finished.Sub(*v.Started)))
		}
	}
	return queue, run
}

// sampleQueueDepth scrapes /metrics through the handler in-process (no
// extra connection) every 50ms until stop closes.
func sampleQueueDepth(h http.Handler, stop <-chan struct{}) []float64 {
	var xs []float64
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return xs
		case <-tick.C:
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if v, ok := gauge(rec.Body, "smaserve_admission_queue_depth"); ok {
			xs = append(xs, v)
		}
	}
}

// gauge reads one unlabeled sample from a Prometheus text exposition.
func gauge(r io.Reader, name string) (float64, bool) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f, err == nil
		}
	}
	return 0, false
}

// codecTimes times the codec layer's public calls on this run's data:
// PGM decode of the uploads and SMF1 encode of their fields.
func codecTimes(r *report, tracks []trackInput) {
	var dec, enc, size []float64
	for _, t := range tracks {
		for k := 0; k < 5; k++ {
			t0 := time.Now()
			if _, err := server.DecodeImage(t.pgm); err != nil {
				continue
			}
			dec = append(dec, us(time.Since(t0)))
			t0 = time.Now()
			b, err := smf1(t.res)
			if err != nil {
				continue
			}
			enc = append(enc, us(time.Since(t0)))
			size = append(size, float64(len(b)))
		}
	}
	r.layer["codec.pgm_decode_us"] = sampled("us", dec)
	r.layer["codec.smf1_encode_us"] = sampled("us", enc)
	r.layer["codec.smf1_bytes"] = sampled("B", size)
}

// durableStats reads a stopped server's data dir: journal records and
// bytes per job by a fresh journal.Open + Replay, result field bytes on
// disk per job; and times direct journal appends of the same record size.
func durableStats(e *env, r *report, dir string, jobs int) error {
	j, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		return err
	}
	var records, bytesN int
	if _, err := j.Replay(func(p []byte) error {
		records++
		bytesN += len(p)
		return nil
	}); err != nil {
		j.Close()
		return err
	}
	if err := j.Close(); err != nil {
		return err
	}
	var fieldBytes int64
	err = filepath.WalkDir(filepath.Join(dir, "fields"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			fieldBytes += info.Size()
		}
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	jobs = max(jobs, 1)
	r.layer["journal.records_per_job"] = scalar("count", float64(records)/float64(jobs))
	r.layer["journal.bytes_per_job"] = scalar("B", float64(bytesN)/float64(jobs))
	r.layer["store.field_bytes_per_job"] = scalar("B", float64(fieldBytes)/float64(jobs))

	// Direct appends of an average-sized record under the default
	// fsync-per-append policy.
	adir, err := os.MkdirTemp(e.tmp, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(adir)
	aj, err := journal.Open(adir, journal.Options{})
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte("x"), max(bytesN/max(records, 1), 16))
	var lat []float64
	for k := 0; k < 40; k++ {
		t0 := time.Now()
		if err := aj.Append(payload); err != nil {
			aj.Close()
			return err
		}
		lat = append(lat, us(time.Since(t0)))
	}
	r.layer["journal.append_us"] = sampled("us", lat)
	return aj.Close()
}
