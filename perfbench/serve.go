package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"bulktx/internal/netsim"
	"bulktx/internal/service"
	"bulktx/internal/sweep"
)

// serveSize shapes the serve-mixed workload. Each client issues, per
// round, runs new runs, resubmits resubmissions and sweeps sweeps, in
// an order shuffled by the seed.
type serveSize struct {
	runs, resubmits, sweeps int
	durationS               float64 // simulated seconds of every cell
}

// serveFull is the benchmark's size: 200 requests a round of short
// dual-radio cells.
var serveFull = serveSize{runs: 30, resubmits: 25, sweeps: 45, durationS: 30}

func (s serveSize) perClient() int { return s.runs + s.resubmits + s.sweeps }

const (
	// serveClients closed-loop clients share the service; the
	// benchmark host has two CPUs.
	serveClients = 2
	// serveWorkers is the service's sweep-pool size.
	serveWorkers = 2
	// Set-up is timed over serveSetupBatches batches of
	// serveSetupPerBatch server starts.
	serveSetupBatches  = 9
	serveSetupPerBatch = 30
	// serveSeeds is how many run seeds each client's cells use. With 4
	// sender counts and 3 burst sizes that is 72 cells per client, so
	// later sweeps mostly read cells the client already ran.
	serveSeeds = 6
	// serveRateBps is the paper's high rate.
	serveRateBps = 2000
)

var (
	serveSenders = []int{5, 15, 25, 35}
	serveBursts  = []int{10, 100, 1000}
)

// request is one scheduled submission with the outcome the schedule
// predicts for it.
type request struct {
	path string // /v1/runs or /v1/sweeps
	body []byte
	doc  sweep.SpecDoc // the same spec as a sweep document
	// deduped: an earlier request of the same client had the same spec.
	deduped bool
	// cells the spec compiles to, and how many of them an earlier
	// request of the same client already resolved (both 0 when deduped).
	cells, cached int
}

type cell struct {
	senders, burst int
	seed           int64
}

// serveSchedule lowers the seed into each client's request list: new
// runs of cells the client has not run (cache misses), resubmissions
// of its earlier specs (content-key dedupes), and 3-sender by 2-burst
// sweeps over its cells (cache reads beside fresh cells). The number of
// each kind is fixed, so seeds differ in order and overlap, not in the
// amount of work. Clients draw run seeds from disjoint ranges, so their
// cells never coincide: whether a request dedupes or reads the cache
// depends only on the client's own earlier requests, which its closed
// loop has finished, and the schedule predicts both exactly.
func serveSchedule(seed int64, s serveSize) ([][]request, error) {
	sched := make([][]request, serveClients)
	for c := range sched {
		rng := rand.New(rand.NewPCG(uint64(seed), uint64(c)))
		firstSeed := 1 + (seed%1_000_000+1_000_000)%1_000_000*1000 + int64(c)*500
		kinds := make([]byte, 0, s.perClient())
		for _, k := range []struct {
			kind byte
			n    int
		}{{'r', s.runs}, {'d', s.resubmits}, {'s', s.sweeps}} {
			kinds = append(kinds, bytes.Repeat([]byte{k.kind}, k.n)...)
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		// The first request has nothing to resubmit or overlap.
		if i := bytes.IndexByte(kinds, 'r'); i > 0 {
			kinds[0], kinds[i] = kinds[i], kinds[0]
		}
		done := map[cell]bool{}
		seen := map[string]bool{}
		extraSeed := firstSeed + serveSeeds
		for i, kind := range kinds {
			var r request
			var cells []cell
			var err error
			switch kind {
			case 'd':
				r = sched[c][rng.IntN(i)]
			case 'r':
				var unrun []cell
				for sd := firstSeed; sd < firstSeed+serveSeeds; sd++ {
					for _, n := range serveSenders {
						for _, b := range serveBursts {
							if cl := (cell{n, b, sd}); !done[cl] {
								unrun = append(unrun, cl)
							}
						}
					}
				}
				var cl cell
				if len(unrun) > 0 {
					cl = unrun[rng.IntN(len(unrun))]
				} else {
					// Every pooled cell has run: a seed of its own keeps
					// this a cache miss.
					cl = cell{serveSenders[rng.IntN(len(serveSenders))], serveBursts[rng.IntN(len(serveBursts))], extraSeed}
					extraSeed++
				}
				cells = []cell{cl}
				r.path = "/v1/runs"
				r.doc = cellDoc([]int{cl.senders}, []int{cl.burst}, cl.seed, s.durationS)
				r.body, err = json.Marshal(service.RunRequest{
					Model: "dual", Senders: cl.senders, Burst: cl.burst,
					RateBps: serveRateBps, DurationS: s.durationS, Runs: 1, Seed: cl.seed,
				})
			case 's':
				// Draw until the sweep is new to this client, so that
				// only resubmissions dedupe while unseen sweeps remain.
				for try := 0; try == 0 || (seen[string(r.body)] && try < 20); try++ {
					senders := pickSorted(rng, serveSenders, 3)
					bursts := pickSorted(rng, serveBursts, 2)
					sd := firstSeed + rng.Int64N(serveSeeds)
					cells = cells[:0]
					for _, n := range senders {
						for _, b := range bursts {
							cells = append(cells, cell{n, b, sd})
						}
					}
					r.path = "/v1/sweeps"
					r.doc = cellDoc(senders, bursts, sd, s.durationS)
					r.body, err = json.Marshal(r.doc)
					if err != nil {
						break
					}
				}
			}
			if err != nil {
				return nil, err
			}
			r.deduped = seen[string(r.body)]
			r.cells, r.cached = 0, 0
			if !r.deduped {
				seen[string(r.body)] = true
				for _, cl := range cells {
					r.cells++
					if done[cl] {
						r.cached++
					}
					done[cl] = true
				}
			}
			sched[c] = append(sched[c], r)
		}
	}
	return sched, nil
}

// pickSorted draws k distinct values of xs in ascending order.
func pickSorted(rng *rand.Rand, xs []int, k int) []int {
	out := make([]int, 0, k)
	for _, i := range rng.Perm(len(xs))[:k] {
		out = append(out, xs[i])
	}
	slices.Sort(out)
	return out
}

// cellDoc is the sweep document of a dual-radio sub-grid at one seed.
func cellDoc(senders, bursts []int, seed int64, durationS float64) sweep.SpecDoc {
	return sweep.SpecDoc{
		Models: []string{"dual"}, Senders: senders, Bursts: bursts,
		RateBps: serveRateBps, DurationS: durationS, Runs: 1, Seed: seed,
	}
}

// scheduleHash fingerprints the requests a schedule issues, so two
// runs can be shown to have sent the same load.
func scheduleHash(sched [][]request) string {
	h := sha256.New()
	for c, reqs := range sched {
		for _, r := range reqs {
			fmt.Fprintf(h, "%d %s %s\n", c, r.path, r.body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// roundCounts are the per-round totals the schedule predicts and the
// service reports on /metrics.
type roundCounts struct {
	Deduped   int `json:"deduped"`
	Simulated int `json:"cells_simulated"`
	Cached    int `json:"cells_cached"`
}

func predictCounts(sched [][]request) roundCounts {
	var rc roundCounts
	for _, reqs := range sched {
		for _, r := range reqs {
			if r.deduped {
				rc.Deduped++
			}
			rc.Simulated += r.cells - r.cached
			rc.Cached += r.cached
		}
	}
	return rc
}

// directExport is the reference the service's answers are checked
// against: every distinct spec of the schedule run straight through a
// sweep.Pool, in each client's order, and exported with
// sweep.WriteJSON.
type directExport struct {
	artifacts [][][]byte      // per client, per request
	fresh     []netsim.Result // one result per distinct cell
}

func exportDirect(sched [][]request) (*directExport, error) {
	pool := &sweep.Pool{Workers: serveWorkers, Cache: sweep.NewCache()}
	byBody := map[string][]byte{}
	seenCell := map[string]bool{}
	d := &directExport{artifacts: make([][][]byte, len(sched))}
	for c, reqs := range sched {
		for _, r := range reqs {
			art, ok := byBody[string(r.body)]
			if !ok {
				spec, err := r.doc.Spec()
				if err != nil {
					return nil, err
				}
				jobs, err := spec.Jobs()
				if err != nil {
					return nil, err
				}
				out, err := pool.RunJobs(jobs)
				if err != nil {
					return nil, err
				}
				var buf bytes.Buffer
				if err := sweep.WriteJSON(&buf, out); err != nil {
					return nil, err
				}
				art = buf.Bytes()
				byBody[string(r.body)] = art
				for i, j := range out.Jobs {
					key, err := sweep.Key(j.Config)
					if err != nil {
						return nil, err
					}
					if !seenCell[key] {
						seenCell[key] = true
						d.fresh = append(d.fresh, out.Results[i])
					}
				}
			}
			d.artifacts[c] = append(d.artifacts[c], art)
		}
	}
	return d, nil
}

// serveOutput is what the serve-mixed golden pins: the schedule the
// seed lowers to and the artifacts the service answers it with.
type serveOutput struct {
	Schedule  string      `json:"schedule_sha256"`
	Artifacts string      `json:"artifacts_sha256"`
	Counts    roundCounts `json:"counts"`
}

// liveServer is a service.Server behind a loopback listener.
type liveServer struct {
	svc    *service.Server
	hs     *http.Server
	base   string
	served chan error
}

// startServer starts a fresh service and returns once /healthz
// answers 200.
func startServer(hc *http.Client, maxJobs int) (*liveServer, error) {
	svc, err := service.New(service.Options{
		Workers: serveWorkers,
		// A closed-loop client has at most one job outstanding, so the
		// queue never fills: a 429 is a failure, not part of the load.
		QueueLimit: 2 * serveClients,
		// The store keeps every job of a round, so no resubmission
		// misses its dedupe through eviction.
		MaxJobs: maxJobs,
	})
	if err != nil {
		return nil, err
	}
	l := &liveServer{svc: svc, hs: &http.Server{Handler: svc}, served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close(context.Background()) //nolint:errcheck // no job was accepted
		return nil, err
	}
	l.base = "http://" + ln.Addr().String()
	go func() { l.served <- l.hs.Serve(ln) }()
	if _, err := get(hc, l.base+"/healthz"); err != nil {
		return nil, errors.Join(err, l.close())
	}
	return l, nil
}

// close closes the listener and every connection, drains the service,
// and returns once the serving goroutine has exited. It closes rather
// than shuts down the HTTP server: callers close only after their
// requests have finished, and Shutdown would wait up to five seconds on
// a connection the client dialed but never used.
func (l *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := errors.Join(l.hs.Close(), l.svc.Close(ctx))
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// get fetches a URL and returns its body, failing on any status but
// 200.
func get(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// submit issues one scheduled request, follows its SSE stream to the
// terminal event and reads results.json. It returns the job ID and the
// artifact.
func submit(hc *http.Client, base string, r request, tr *tracer, root int) (string, []byte, error) {
	id := tr.start("service.submit", root)
	resp, err := hc.Post(base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return "", nil, err
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	tr.end(id)
	want := http.StatusAccepted
	if r.deduped {
		want = http.StatusOK
	}
	switch {
	case err != nil:
		return "", nil, fmt.Errorf("POST %s: %w", r.path, err)
	case resp.StatusCode != want || st.Deduped != r.deduped:
		return "", nil, fmt.Errorf("POST %s: %s, deduped %v; want %d, deduped %v",
			r.path, resp.Status, st.Deduped, want, r.deduped)
	}

	id = tr.start("service.sse_wait", root)
	last, err := lastEvent(hc, base+"/v1/jobs/"+st.ID+"/events")
	tr.end(id)
	if err != nil {
		return "", nil, err
	}
	if last != "done" {
		return "", nil, fmt.Errorf("job %s: SSE stream ended with %q, want done", st.ID, last)
	}

	id = tr.start("service.artifact", root)
	art, err := get(hc, base+"/v1/jobs/"+st.ID+"/artifacts/results.json")
	tr.end(id)
	return st.ID, art, err
}

// lastEvent reads an SSE stream to its end and returns the name of
// its last event.
func lastEvent(hc *http.Client, url string) (string, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var last string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			last = name
		}
	}
	return last, sc.Err()
}

// scrapeCounts reads the round's counters from /metrics.
func scrapeCounts(hc *http.Client, base string) (roundCounts, error) {
	body, err := get(hc, base+"/metrics")
	if err != nil {
		return roundCounts{}, err
	}
	var rc roundCounts
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case "bulktx_jobs_deduped_total":
			rc.Deduped = int(v)
		case "bulktx_cells_simulated_total":
			rc.Simulated = int(v)
		case "bulktx_cells_cached_total":
			rc.Cached = int(v)
		}
	}
	return rc, nil
}

// jobTimings collects the service's own queue-wait and execution
// figures for the jobs of a traced run.
type jobTimings struct {
	mu               sync.Mutex
	queue, execution []float64
}

func (jt *jobTimings) fetch(hc *http.Client, base, id string) error {
	body, err := get(hc, base+"/v1/jobs/"+id)
	if err != nil {
		return err
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	if st.Timings == nil {
		return fmt.Errorf("job %s has no timings", id)
	}
	jt.mu.Lock()
	jt.queue = append(jt.queue, st.Timings.QueueWaitS)
	jt.execution = append(jt.execution, st.Timings.ExecutionS)
	jt.mu.Unlock()
	return nil
}

// runServe lowers the schedule and its direct exports, times server
// start-up (set-up), then runs rounds: each starts a fresh service,
// lets every client work through its schedule in a closed loop, checks
// the service's counters against the schedule, and shuts the service
// down.
func runServe(c config, s serveSize, golden *serveOutput) (*result, error) {
	sched, err := serveSchedule(c.seed, s)
	if err != nil {
		return nil, err
	}
	want, err := exportDirect(sched)
	if err != nil {
		return nil, fmt.Errorf("direct export: %w", err)
	}
	predicted := predictCounts(sched)
	var roundEvents uint64
	for _, r := range want.fresh {
		roundEvents += r.Events
	}
	artifactHash := sha256.New()
	for _, arts := range want.artifacts {
		for _, a := range arts {
			artifactHash.Write(a)
		}
	}
	observed := serveOutput{
		Schedule:  scheduleHash(sched),
		Artifacts: hex.EncodeToString(artifactHash.Sum(nil)),
		Counts:    predicted,
	}
	maxJobs := serveClients*s.perClient() + 1

	hc := &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients},
	}
	defer hc.CloseIdleConnections()
	setup, err := timeSetup(serveSetupBatches, serveSetupPerBatch, func() (func() error, error) {
		l, err := startServer(hc, maxJobs)
		if err != nil {
			return nil, err
		}
		return l.close, nil
	})
	if err != nil {
		return nil, err
	}

	t := &tally{}
	var jt jobTimings
	var mu sync.Mutex
	var failures []string
	fail := func(err error) {
		mu.Lock()
		failures = append(failures, err.Error())
		mu.Unlock()
	}
	var lastCounts roundCounts
	body := func(tr *tracer) func() {
		return func() {
			l, err := startServer(hc, maxJobs)
			if err != nil {
				fail(err)
				t.op(false)
				return
			}
			var wg sync.WaitGroup
			for ci, reqs := range sched {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, r := range reqs {
						root := tr.start("service.request", 0)
						t0 := time.Now()
						id, art, err := submit(hc, l.base, r, tr, root)
						lat := time.Since(t0).Seconds()
						tr.end(root)
						if err == nil && !bytes.Equal(art, want.artifacts[ci][i]) {
							err = fmt.Errorf("client %d request %d: results.json differs from the direct export", ci, i)
						}
						if err == nil && tr != nil && !r.deduped {
							err = jt.fetch(hc, l.base, id)
						}
						if err != nil {
							fail(err)
						}
						t.job(lat, r.cells, 0, err == nil)
					}
				}()
			}
			wg.Wait()
			got, err := scrapeCounts(hc, l.base)
			if err == nil && got != predicted {
				err = fmt.Errorf("service counted %+v, schedule predicts %+v", got, predicted)
			}
			lastCounts = got
			err = errors.Join(err, l.close())
			hc.CloseIdleConnections()
			if err != nil {
				fail(err)
			}
			t.op(err == nil)
			t.addEvents(roundEvents)
		}
	}

	res := &result{observed: observed, notes: []string{
		fmt.Sprintf("serve-mixed schedule sha256 %s: %d clients x %d requests, %d deduped, %d cells simulated, %d cached",
			observed.Schedule, serveClients, s.perClient(), predicted.Deduped, predicted.Simulated, predicted.Cached),
	}}
	if golden != nil && *golden != observed {
		fail(fmt.Errorf("serve-mixed output %+v, golden %+v", observed, *golden))
		t.op(false)
	}
	if !c.trace {
		p := measure(c.seconds, t, body(nil))
		m, note := endToEndMetrics(setup, p, t)
		res.metrics = m
		res.notes = append(res.notes, note)
	} else {
		tr := newTracer()
		m, note, err := traceRun(c, "serve-mixed", setup, t, tr, body)
		if err != nil {
			return nil, err
		}
		m["service.submit_p50_ms"] = percentile(tr.durations("service.submit"), 50) * 1e3
		m["service.sse_wait_p50_ms"] = percentile(tr.durations("service.sse_wait"), 50) * 1e3
		m["service.artifact_p50_ms"] = percentile(tr.durations("service.artifact"), 50) * 1e3
		m["service.queue_wait_p50_s"] = percentile(jt.queue, 50)
		m["service.execution_p50_s"] = percentile(jt.execution, 50)
		m["service.deduped"] = float64(lastCounts.Deduped)
		m["sweep.cells_cached"] = float64(lastCounts.Cached)
		m["sweep.cells_simulated"] = float64(lastCounts.Simulated)
		addRunCounts(m, want.fresh...)
		res.metrics = m
		res.notes = append(res.notes, note)
	}
	res.attempted, res.failed = t.attempted, t.failed
	if len(failures) > 0 {
		res.notes = append(res.notes, fmt.Sprintf("check failed (%d failures), first: %s", len(failures), failures[0]))
	}
	return res, nil
}
