package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"carbon/internal/cluster"
	"carbon/internal/core"
	"carbon/internal/serve"
	"carbon/internal/telemetry"
)

// servedGens is how many generations each served job runs.
const servedGens = 2

// servedSpec is one short Table II job on class n=100/m=5. Budgets are
// sized for exactly servedGens generations; Workers is carbond's default.
func servedSpec(seed uint64) serve.JobSpec {
	return serve.JobSpec{
		N: 100, M: 5, Instance: instanceIndex, Seed: seed,
		Pop: 100, ULEvals: 100 * servedGens, LLEvals: 400 * servedGens,
		PreySample: 4, Workers: 1,
	}
}

// fleet is one in-process carbond worker (a serve.Manager with one job
// slot, checkpointing every generation) behind a cluster.Router, both
// served over loopback HTTP.
type fleet struct {
	mgr       *serve.Manager
	router    *cluster.Router
	servers   []*http.Server
	workerURL string
	routerURL string
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, "http://" + ln.Addr().String(), nil
}

func startFleet(dir string) (*fleet, error) {
	mgr, err := serve.NewManager(serve.Options{
		Workers: 1, SpoolDir: filepath.Join(dir, "worker"), CheckpointEvery: 1,
	})
	if err != nil {
		return nil, err
	}
	f := &fleet{mgr: mgr}
	wsrv, wurl, err := listen(serve.APIHandler(mgr))
	if err != nil {
		f.close()
		return nil, err
	}
	f.servers, f.workerURL = append(f.servers, wsrv), wurl
	f.router, err = cluster.NewRouter(cluster.Options{
		Workers: []string{wurl}, SpoolDir: filepath.Join(dir, "router"),
	})
	if err != nil {
		f.close()
		return nil, err
	}
	rsrv, rurl, err := listen(f.router.Handler())
	if err != nil {
		f.close()
		return nil, err
	}
	f.servers, f.routerURL = append(f.servers, rsrv), rurl
	return f, nil
}

// close stops the servers, the router and the manager, waiting for each.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range f.servers {
		_ = s.Shutdown(ctx)
	}
	if f.router != nil {
		_ = f.router.Close()
	}
	_ = f.mgr.Close(ctx)
}

// job is one closed-loop submission and its observed timeline.
type job struct {
	spec      serve.JobSpec
	direct    bool          // submitted to the worker, bypassing the router
	submit    time.Duration // POST round trip
	latency   time.Duration // submit to result in hand
	queueWait time.Duration // Started − Submitted
	run       time.Duration // Finished − Started
	lag       time.Duration // client saw the terminal state − Finished
	rec       *serve.ResultRecord
	err       error
}

type client struct {
	http *http.Client
}

// do sends body (nil for none) as JSON and decodes a 2xx reply into out.
func (c *client) do(method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// awaitEnd follows a job's SSE event stream until its eof frame, which
// the server sends once the job is terminal.
func (c *client) awaitEnd(base, id string) error {
	resp, err := c.http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s events: %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if sc.Text() == "event: eof" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %s: event stream ended before eof", id)
}

// runJob submits spec to base (a router or a worker), waits on the job's
// event stream for its end, and fetches its final status and result.
// Waiting on the stream rather than polling keeps the clients off the
// CPUs the job runs on.
func (c *client) runJob(base string, spec serve.JobSpec, direct bool) job {
	j := job{spec: spec, direct: direct}
	t0 := time.Now()
	var st serve.Status
	if err := c.do("POST", base+"/v1/jobs", spec, &st); err != nil {
		j.err = err
		return j
	}
	j.submit = time.Since(t0)
	if err := c.awaitEnd(base, st.ID); err != nil {
		j.err = err
		return j
	}
	seen := time.Now()
	if err := c.do("GET", base+"/v1/jobs/"+st.ID, nil, &st); err != nil {
		j.err = err
		return j
	}
	if st.State != serve.StateDone {
		j.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return j
	}
	var rec serve.ResultRecord
	if err := c.do("GET", base+"/v1/jobs/"+st.ID+"/result", nil, &rec); err != nil {
		j.err = err
		return j
	}
	j.latency = time.Since(t0)
	j.rec = &rec
	if st.Started != nil && st.Finished != nil {
		j.queueWait = st.Started.Sub(st.Submitted)
		j.run = st.Finished.Sub(*st.Started)
		j.lag = seen.Sub(*st.Finished)
	}
	return j
}

// servedRun is the outcome of one closed-loop window.
type servedRun struct {
	jobs    []job
	elapsed time.Duration
	alloc   uint64
	setup   []float64 // seconds per fleet set-up
}

// runServed starts a fleet (timing set-up the first half of setups
// times, keeping the last fleet), then runs clients closed-loop clients
// until the window closes or maxJobs jobs were submitted (0 = no cap),
// and times the other half of the set-ups after the window, so that
// setup_s samples the machine at both ends of the run. With direct,
// every other job of client 0 bypasses the router, for the router
// overhead.
func runServed(seed uint64, window time.Duration, clients, maxJobs, setups int, direct bool) (*servedRun, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "served-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	out := &servedRun{}
	setUp := func(i int) (*fleet, error) {
		runtime.GC()
		t0 := time.Now()
		f, err := startFleet(filepath.Join(dir, fmt.Sprint(i)))
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
		return f, nil
	}
	before := setups - setups/2
	var f *fleet
	for i := 0; i < before; i++ {
		if f != nil {
			f.close()
		}
		if f, err = setUp(i); err != nil {
			return nil, err
		}
	}

	var mu sync.Mutex
	next := 0
	// Distinct seeds per job and per run seed.
	claim := func() (uint64, bool) {
		mu.Lock()
		defer mu.Unlock()
		if maxJobs > 0 && next >= maxJobs {
			return 0, false
		}
		next++
		return seed*1_000_000 + uint64(next), true
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	results := make([][]job, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &client{http: &http.Client{Timeout: 60 * time.Second}}
			for k := 0; time.Now().Before(deadline); k++ {
				s, ok := claim()
				if !ok {
					return
				}
				viaWorker := direct && c == 0 && k%2 == 1
				base := f.routerURL
				if viaWorker {
					base = f.workerURL
				}
				results[c] = append(results[c], cl.runJob(base, servedSpec(s), viaWorker))
			}
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	out.alloc = m1.TotalAlloc - m0.TotalAlloc
	f.close()
	for i := before; i < setups; i++ {
		g, err := setUp(i)
		if err != nil {
			return nil, err
		}
		g.close()
	}
	for _, r := range results {
		out.jobs = append(out.jobs, r...)
	}
	return out, nil
}

// reference runs a job's spec in-process, the way obs-smoke checks
// served results.
func reference(spec serve.JobSpec) (*core.Result, error) {
	spec = spec.Normalize()
	mk, err := spec.Market()
	if err != nil {
		return nil, err
	}
	return core.Run(mk, spec.Config())
}

// sameResult reports whether a served record equals an in-process
// result bit for bit.
func sameResult(rec *serve.ResultRecord, want *core.Result) bool {
	return rec.Gens == want.Gens && rec.ULEvals == want.ULEvals && rec.LLEvals == want.LLEvals &&
		rec.BestRevenue == want.Best.Revenue && rec.BestGapPct == want.Best.GapPct &&
		rec.BestTree == want.Best.TreeStr &&
		reflect.DeepEqual(rec.BestPrice, want.Best.Price) &&
		reflect.DeepEqual(rec.ULCurveX, want.ULCurve.X) && reflect.DeepEqual(rec.ULCurveY, want.ULCurve.Y) &&
		reflect.DeepEqual(rec.GapCurveX, want.GapCurve.X) && reflect.DeepEqual(rec.GapCurveY, want.GapCurve.Y)
}

// tracedReference re-runs a job's spec in-process twice — plainly and
// with the engine's Metrics registry plus the per-generation replay —
// recording the per-layer work and both step times.
func tracedReference(spec serve.JobSpec, acc *layers) (*core.Result, error) {
	spec = spec.Normalize()
	mk, err := spec.Market()
	if err != nil {
		return nil, err
	}
	cfg := spec.Config()
	plain, err := core.NewEngine(mk, cfg)
	if err != nil {
		return nil, err
	}
	for plain.CanStep() {
		t := time.Now()
		if !plain.Step() {
			return nil, fmt.Errorf("reference step stopped: %v", plain.Err())
		}
		acc.untraced = append(acc.untraced, ms(time.Since(t)))
	}
	reg := telemetry.NewRegistry()
	tcfg := cfg
	tcfg.Metrics = reg
	eng, err := core.NewEngine(mk, tcfg)
	if err != nil {
		return nil, err
	}
	if err := tracedSteps(eng, reg, mk, cfg, -1, acc); err != nil {
		return nil, err
	}
	return eng.Result()
}

// checkJobs compares every completed job with an in-process run of its
// spec. The first traced completed jobs are re-run through
// tracedReference, recording their per-layer work into acc; the rest
// run plainly on two goroutines, since the check is not timed. It
// returns the jobs that passed and the number that failed.
func checkJobs(jobs []job, traced int, acc *layers) ([]job, int, error) {
	refs := make([]*core.Result, len(jobs))
	errs := make([]error, len(jobs))
	var plain []int
	for i, j := range jobs {
		switch {
		case j.err != nil:
		case traced > 0:
			refs[i], errs[i] = tracedReference(j.spec, acc)
			traced--
		default:
			plain = append(plain, i)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(plain); k += 2 {
				i := plain[k]
				refs[i], errs[i] = reference(jobs[i].spec)
			}
		}(w)
	}
	wg.Wait()
	var good []job
	failed := 0
	for i, j := range jobs {
		switch {
		case j.err != nil:
			fmt.Fprintf(os.Stderr, "perfbench: job failed: %v\n", j.err)
			failed++
		case errs[i] != nil:
			return nil, 0, errs[i]
		case !sameResult(j.rec, refs[i]):
			fmt.Fprintf(os.Stderr, "perfbench: job seed %d: served result differs from the in-process run\n", j.spec.Seed)
			failed++
		default:
			good = append(good, j)
		}
	}
	return good, failed, nil
}

// serveLayer computes the serve and cluster per-layer metrics.
func serveLayer(jobs []job) map[string]metric {
	var submit, queue, run, lag, routed, direct []float64
	for _, j := range jobs {
		submit = append(submit, ms(j.submit))
		queue = append(queue, ms(j.queueWait))
		run = append(run, ms(j.run))
		lag = append(lag, ms(j.lag))
		if j.direct {
			direct = append(direct, ms(j.submit))
		} else {
			routed = append(routed, ms(j.submit))
		}
	}
	return map[string]metric{
		"serve.submit_ms":            {median(submit), "ms"},
		"serve.queue_wait_ms":        {median(queue), "ms"},
		"serve.run_ms":               {median(run), "ms"},
		"serve.completion_lag_ms":    {median(lag), "ms"},
		"cluster.submit_overhead_ms": {median(routed) - median(direct), "ms"},
	}
}

// servedProbe runs six sequential jobs, alternating router and direct
// submissions, for the serve and cluster metrics of a traced engine
// workload.
func servedProbe(seed uint64) (attempted, failed int, m map[string]metric, err error) {
	run, err := runServed(seed, time.Hour, 1, 6, 1, true)
	if err != nil {
		return 0, 0, nil, err
	}
	good, failed, err := checkJobs(run.jobs, 0, nil)
	if err != nil {
		return 0, 0, nil, err
	}
	return len(run.jobs), failed, serveLayer(good), nil
}

// servedWorkload measures the closed loop of two clients through the
// router to one single-slot worker.
func servedWorkload(seed uint64, window time.Duration, traced bool) (result, error) {
	run, err := runServed(seed, window, 2, 0, setupRuns, traced)
	if err != nil {
		return result{}, err
	}
	acc := &layers{}
	tracedJobs := 0
	if traced {
		tracedJobs = 3
	}
	good, failed, err := checkJobs(run.jobs, tracedJobs, acc)
	if err != nil {
		return result{}, err
	}
	if len(good) == 0 {
		return result{}, errors.New("no served job completed")
	}
	res := result{Attempted: len(run.jobs), Failed: failed}
	fmt.Fprintf(os.Stderr, "perfbench: %d jobs passed of %d submitted in %.1fs\n", len(good), len(run.jobs), run.elapsed.Seconds())
	if traced {
		res.Failed += acc.mismatches
		res.Metrics = acc.metrics()
		for k, v := range serveLayer(good) {
			res.Metrics[k] = v
		}
		return res, nil
	}
	var lat, perGen, rev, gap []float64
	gens := 0
	for _, j := range good {
		lat = append(lat, ms(j.latency))
		perGen = append(perGen, ms(j.run)/float64(j.rec.Gens))
		rev = append(rev, j.rec.BestRevenue)
		gap = append(gap, j.rec.BestGapPct)
		gens += j.rec.Gens
	}
	res.Metrics = map[string]metric{
		"ms_per_gen":         {median(perGen), "ms"},
		"setup_s":            {median(run.setup), "s"},
		"alloc_mb_per_gen":   {float64(run.alloc) / 1e6 / float64(gens), "MB"},
		"ul_revenue":         {median(rev), "F"},
		"ll_gap_pct":         {median(gap), "%"},
		"job_latency_p50_ms": {median(lat), "ms"},
		"job_latency_p90_ms": {quantile(lat, 0.9), "ms"},
		"jobs_per_s":         {float64(len(lat)) / run.elapsed.Seconds(), "1/s"},
	}
	return res, nil
}
