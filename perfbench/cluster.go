package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"sma/internal/cluster"
	"sma/internal/core"
	"sma/internal/server"
)

// clusterCfg sizes cluster-jobs: retained multi-frame jobs on a durable
// coordinator over in-process workers, one closed-loop client.
type clusterCfg struct {
	size, frames, shardPairs, workers, refs, setups int
}

func clusterJobsCfg(quick bool) clusterCfg {
	c := clusterCfg{size: 48, frames: 17, shardPairs: 4, workers: 2, refs: 2, setups: 3}
	if quick {
		c.size, c.frames, c.shardPairs, c.refs, c.setups = 24, 5, 2, 1, 2
	}
	return c
}

// spanTransport is the span-recording RoundTripper on
// cluster.Config.Client: one cluster.dispatch span per shard request,
// from send to the end of the streamed response, with the bytes read.
type spanTransport struct {
	next http.RoundTripper
	tr   atomic.Pointer[tracer]
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.tr.Load()
	if tr == nil || req.URL.Path != cluster.ShardPath {
		return t.next.RoundTrip(req)
	}
	id := tr.begin("cluster.dispatch", 0, "")
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		tr.end(id)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) { tr.endAt(id, time.Now(), n) }}
	return resp, nil
}

// countingBody reports the bytes read when the body is closed.
type countingBody struct {
	io.ReadCloser
	n    int64
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done != nil {
		b.done(b.n)
		b.done = nil
	}
	return err
}

// clusterRig is a durable coordinator over in-process workers, each on
// its own loopback listener.
type clusterRig struct {
	servers  []*http.Server // workers' listeners, then the coordinator's
	coServer *http.Server
	served   []chan error
	workerH  []*tracedHandler
	coH      *tracedHandler
	rt       *spanTransport
	co       *cluster.Coordinator
	coCancel context.CancelFunc
	base     string
	dir      string
	client   *http.Client
}

func (rig *clusterRig) serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	ch := make(chan error, 1)
	go func() { ch <- hs.Serve(ln) }()
	rig.served = append(rig.served, ch)
	return hs, "http://" + ln.Addr().String(), nil
}

func startCluster(ctx context.Context, e *env, c clusterCfg) (*clusterRig, error) {
	rig := &clusterRig{rt: &spanTransport{next: &http.Transport{MaxIdleConnsPerHost: 8}}}
	var urls []string
	for i := 0; i < c.workers; i++ {
		wk := cluster.NewWorker(cluster.WorkerConfig{Concurrency: 2, RowWorkers: 1, Logf: quiet})
		h := &tracedHandler{name: "cluster.worker", next: wk}
		rig.workerH = append(rig.workerH, h)
		mux := http.NewServeMux()
		mux.Handle("POST "+cluster.ShardPath, h)
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "ready") })
		hs, url, err := rig.serve(mux)
		if err != nil {
			return nil, errors.Join(err, rig.close(ctx))
		}
		rig.servers = append(rig.servers, hs)
		urls = append(urls, url)
	}
	dir, err := os.MkdirTemp(e.tmp, "cluster-")
	if err != nil {
		return nil, errors.Join(err, rig.close(ctx))
	}
	rig.dir = dir
	co, err := cluster.New(cluster.Config{
		Workers: urls, ShardPairs: c.shardPairs, DataDir: dir,
		Client: &http.Client{Transport: rig.rt}, Logf: quiet,
	})
	if err != nil {
		return nil, errors.Join(err, rig.close(ctx))
	}
	coCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	rig.co, rig.coCancel = co, cancel
	if _, err := co.Recover(coCtx); err != nil {
		return nil, errors.Join(err, rig.close(ctx))
	}
	co.Start(coCtx)
	rig.coH = &tracedHandler{name: "cluster.handler", next: co.Handler()}
	if rig.coServer, rig.base, err = rig.serve(rig.coH); err != nil {
		return nil, errors.Join(err, rig.close(ctx))
	}
	rig.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return rig, nil
}

// setTracer installs (or, with nil, removes) the tracer on every seam.
func (rig *clusterRig) setTracer(tr *tracer) {
	rig.rt.tr.Store(tr)
	rig.coH.tr.Store(tr)
	for _, h := range rig.workerH {
		h.tr.Store(tr)
	}
}

// close stops the coordinator's listener, drains the coordinator, then
// stops the workers; the data dir stays for inspection.
func (rig *clusterRig) close(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
	defer cancel()
	var errs []error
	if rig.client != nil {
		rig.client.CloseIdleConnections()
	}
	if rig.coServer != nil {
		errs = append(errs, rig.coServer.Shutdown(ctx))
	}
	if rig.co != nil {
		errs = append(errs, rig.co.Shutdown(ctx))
	}
	if rig.coCancel != nil {
		rig.coCancel()
	}
	for _, hs := range rig.servers {
		errs = append(errs, hs.Shutdown(ctx))
	}
	for _, ch := range rig.served {
		if err := <-ch; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// genCluster builds the job specs from the seed.
func genCluster(c clusterCfg, seed int64) (serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	var in serveInputs
	for i := 0; i < c.refs; i++ {
		req := cluster.JobRequest{JobRequest: server.JobRequest{
			Synthetic: &server.SyntheticRef{Scene: "hurricane", Size: c.size, Seed: rng.Int63(), Frames: c.frames},
			Retain:    true,
		}}
		body, err := json.Marshal(req)
		if err != nil {
			return in, err
		}
		in.jobs = append(in.jobs, jobInput{body: body})
	}
	return in, nil
}

// closedLoop runs one client submitting job after job until the time is
// up; every result stream is verified against the offline tracker.
func closedLoop(e *env, rig *clusterRig, in *serveInputs, r *report, tr *tracer) *phase {
	ph := &phase{}
	cl := &client{e: e, hc: rig.client, base: rig.base, plane: "cluster", in: in, r: r, tr: tr, sem: make(chan struct{}, 1), ph: ph}
	ph.start = time.Now()
	cl.giveUp = ph.start.Add(e.seconds + 60*time.Second)
	deadline := ph.start.Add(e.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		cl.job(i, arrival{job: true, input: i % len(in.jobs)}, time.Now())
	}
	ph.end = time.Now()
	return ph
}

// coordinatorCounter scrapes one counter from the coordinator's /metrics
// through its handler.
func coordinatorCounter(rig *clusterRig, name string) float64 {
	rec := httptest.NewRecorder()
	rig.co.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	v, _ := gauge(rec.Body, name) // absent counter: zero
	return v
}

// runClusterJobs: shard dispatch, the SMP1 wire and merge on a durable
// coordinator over 2 in-process workers.
func runClusterJobs(ctx context.Context, e *env) (*report, error) {
	c := clusterJobsCfg(e.quick)
	r := newReport()
	var in serveInputs
	var rig *clusterRig
	setup, err := timeSetups(c.setups, func(last bool) error {
		var err error
		if in, err = genCluster(c, e.seed); err != nil {
			return err
		}
		rg, err := startCluster(ctx, e, c)
		if err != nil {
			return err
		}
		// Warm-up: a 3-frame job through the whole path.
		warm := cluster.JobRequest{JobRequest: server.JobRequest{Synthetic: &server.SyntheticRef{Scene: "hurricane", Size: c.size, Seed: e.seed, Frames: 3}}}
		body, err := json.Marshal(warm)
		if err == nil {
			err = warmJob(rg, body)
		}
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
	var tasks []func() error
	for i := range in.jobs {
		j := &in.jobs[i]
		tasks = append(tasks, func() error {
			var req cluster.JobRequest
			if err := json.Unmarshal(j.body, &req); err != nil {
				return err
			}
			var err error
			j.want, j.se, j.n, err = offlineStream(*req.Synthetic, core.ScaledParams())
			return err
		})
	}
	if err := parallel(tasks); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	ph := closedLoop(e, rig, &in, r, nil)
	var lat []float64
	for _, s := range ph.jobLat {
		lat = append(lat, s*1000)
	}
	r.e2e["latency_p50_ms"] = sampled("ms", lat)
	r.e2e["pairs_per_s"] = scalar("pairs/s", float64(ph.pairs)/ph.end.Sub(ph.start).Seconds())
	var se float64
	var n int
	for _, j := range in.jobs {
		se, n = se+j.se, n+j.n
	}
	r.e2e["truth_rmse_px"] = scalar("px", math.Sqrt(se/float64(max(n, 1))))
	if !e.trace {
		closed = true
		return r, rig.close(ctx)
	}

	retries0 := coordinatorCounter(rig, "smaserve_cluster_dispatch_retries_total")
	tr := newTracer()
	r.tr = tr
	rig.setTracer(tr)
	ph2 := closedLoop(e, rig, &in, r, tr)
	rig.setTracer(nil)
	retries := coordinatorCounter(rig, "smaserve_cluster_dispatch_retries_total") - retries0

	spans := tr.spans()
	worker := map[int64]span{}
	for _, s := range spans {
		if s.Name == "cluster.worker" {
			worker[s.Parent] = s
		}
	}
	var dispatch, work, overhead []float64
	var wire int64
	for _, s := range spans {
		if s.Name != "cluster.dispatch" {
			continue
		}
		dispatch = append(dispatch, ms(s.dur()))
		wire += s.Bytes
		if w, ok := worker[s.ID]; ok {
			work = append(work, ms(w.dur()))
			overhead = append(overhead, ms(s.dur()-w.dur()))
		}
	}
	r.layer["cluster.dispatch_ms_per_shard"] = sampled("ms", dispatch)
	r.layer["cluster.worker_ms_per_shard"] = sampled("ms", work)
	r.layer["cluster.dispatch_overhead_ms"] = sampled("ms", overhead)
	r.layer["cluster.wire_bytes_per_pair"] = scalar("B", float64(wire)/float64(max(ph2.pairs, 1)))
	r.layer["cluster.dispatch_retries"] = scalar("count", retries/float64(max(len(ph2.views), 1)))
	queue, _ := jobIntervals(ph2.views)
	r.layer["cluster.job_queue_wait_ms"] = sampled("ms", queue)
	var lat2 []float64
	for _, s := range ph2.jobLat {
		lat2 = append(lat2, s*1000)
	}
	r.layer["trace.overhead_ms"] = scalar("ms", median(lat2)-median(lat))
	summarizeTrace(e, r, "job")

	closed = true
	if err := rig.close(ctx); err != nil {
		return nil, err
	}
	if err := durableStats(e, r, rig.dir, len(ph.views)+len(ph2.views)+1); err != nil {
		return nil, err
	}
	return r, nil
}

// warmJob runs one job to completion without verification.
func warmJob(rig *clusterRig, body []byte) error {
	resp, err := rig.client.Post(rig.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var view server.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("warm-up job: HTTP %d", resp.StatusCode)
	}
	_, _, err = pollJob(rig.client, make(chan struct{}, 1), rig.base, view.ID, time.Now().Add(time.Minute), nil, 0, "", "cluster")
	return err
}
