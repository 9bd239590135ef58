package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"extrareq/internal/apps"
	"extrareq/internal/campaign"
	"extrareq/internal/cli"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/obs"
	"extrareq/internal/serve"
	"extrareq/internal/workload"
)

// serve-mix replays one seeded request sequence against an in-process
// reqserve, built the way cmd/reqserve builds it, from two closed-loop
// clients over at most two loopback connections. Each replay (a "sweep")
// starts from a fresh server and an empty disk store, so every replay of
// one seed does identical work; set-up seeds the served set first.

// Request classes.
const (
	classSeed     = "seed"     // set-up submission that populates the served set
	classHit      = "hit"      // resubmits a served campaign: a campaign-entry read
	classModels   = "models"   // GET /v1/campaigns/{key}/models on a served key
	classAssemble = "assemble" // new 3×3 sub-grid of a known seed: point reads + writes
	classFresh    = "fresh"    // 3×3 sub-grid under a new seed: every point measured
)

// serveOp is one request of the sequence. Ops that touch the same
// campaign key or the same (app, seed) family wait for the previous such
// op (After), so the sequence means the same thing however the two
// clients interleave: every referenced key exists, and every replay
// measures the same points.
type serveOp struct {
	Class string
	App   string
	Grid  workload.Grid
	Ref   int // the op that served the key (hit, models)
	After int // op to wait for, or -1
}

// serveSeq is a generated sequence: set-up ops [0, Setup), then the
// replayed ops.
type serveSeq struct {
	Ops   []serveOp
	Setup int
}

// subGrids is the fixed order in which every (app, seed) family submits
// its 3×3 sub-grids of the 5×5 grid. Each overlaps the earlier ones: the
// 1st measures all 9 points, the 2nd and 3rd 6 new points each and the
// 4th 4, which completes the 25; the 5th to 10th are assembled wholly
// from stored points. Fixing the order makes every seed's replay measure
// the same points; the seed picks the grid seeds and the interleaving.
var subGrids = [...][2][]int{
	{{2, 8, 32}, {128, 512, 2048}},
	{{2, 8, 32}, {256, 512, 1024}},
	{{4, 8, 16}, {128, 512, 2048}},
	{{4, 16, 32}, {256, 1024, 2048}},
	{{2, 16, 32}, {128, 256, 1024}},
	{{2, 4, 8}, {512, 1024, 2048}},
	{{8, 16, 32}, {128, 256, 512}},
	{{2, 4, 32}, {128, 1024, 2048}},
	{{4, 8, 32}, {256, 512, 2048}},
	{{2, 8, 16}, {256, 1024, 2048}},
}

// The replay's composition, the same for every seed. The counts are
// chosen, not taken from a production trace, so that the serving paths
// carry most of a replay's client time rather than simulation: over ten
// seeds on a 2-vCPU guest, fresh took a sixth of it, assemble over two
// fifths, models about a quarter and hit an eighth (the detail line
// reports each class's share as <class>_time_share).
// Set-up gives each app one family with seedGridsPerApp served campaigns.
// The replay walks the rest of each of those chains and starts
// freshPerApp new families per app, whose first sub-grid is the fresh
// request and the rest assembles. The served set ends past the 64-entry
// campaign LRU, so some hits and models are served from disk.
const (
	seedGridsPerApp = 2
	freshPerApp     = 1
	freshChain      = len(subGrids) // sub-grids per fresh family
	replayHits      = 600
	replayModels    = 150
)

// replayOps is the number of requests in one replay.
var replayOps = func() int {
	n := len(apps.Names())
	return n*(len(subGrids)-seedGridsPerApp) + n*freshPerApp*freshChain + replayHits + replayModels
}()

// genServeSeq derives the sequence from the benchmark seed alone.
func genServeSeq(seed int64) serveSeq {
	rng := rand.New(rand.NewSource(seed))
	type family struct {
		app   string
		seed  int64
		next  int // index into subGrids
		stop  int // one past the family's last sub-grid
		last  int // last op on the family, or -1
		fresh bool
	}
	var seq serveSeq
	var fams []*family
	lastKey := map[int]int{} // serving op -> last op on its key
	var served []int
	famSeed := seed * 1000
	newFamily := func(app string, next, stop int, fresh bool) *family {
		famSeed++
		f := &family{app: app, seed: famSeed, next: next, stop: stop, last: -1, fresh: fresh}
		fams = append(fams, f)
		return f
	}
	advance := func(f *family, class string) {
		sg := subGrids[f.next]
		g := workload.Grid{Procs: append([]int(nil), sg[0]...), Ns: append([]int(nil), sg[1]...), Seed: f.seed}
		i := len(seq.Ops)
		seq.Ops = append(seq.Ops, serveOp{Class: class, App: f.app, Grid: g, Ref: i, After: f.last})
		f.next++
		f.last = i
		lastKey[i] = i
		served = append(served, i)
	}

	for _, app := range apps.Names() {
		f := newFamily(app, 0, len(subGrids), false)
		for f.next < seedGridsPerApp {
			advance(f, classSeed)
		}
	}
	seq.Setup = len(seq.Ops)
	for _, app := range apps.Names() {
		for k := 0; k < freshPerApp; k++ {
			newFamily(app, 0, freshChain, true)
		}
	}

	// One token per replayed op, shuffled: a chain step, a hit or a models.
	chainSteps := replayOps - replayHits - replayModels
	tokens := make([]string, 0, replayOps)
	for i := 0; i < chainSteps; i++ {
		tokens = append(tokens, "")
	}
	for i := 0; i < replayHits; i++ {
		tokens = append(tokens, classHit)
	}
	for i := 0; i < replayModels; i++ {
		tokens = append(tokens, classModels)
	}
	rng.Shuffle(len(tokens), func(i, j int) { tokens[i], tokens[j] = tokens[j], tokens[i] })
	for _, class := range tokens {
		if class == "" {
			var open []*family
			for _, f := range fams {
				if f.next < f.stop {
					open = append(open, f)
				}
			}
			f := open[rng.Intn(len(open))]
			class = classAssemble
			if f.fresh && f.next == 0 {
				class = classFresh
			}
			advance(f, class)
			continue
		}
		j := served[rng.Intn(len(served))]
		i := len(seq.Ops)
		seq.Ops = append(seq.Ops, serveOp{Class: class, App: seq.Ops[j].App, Grid: seq.Ops[j].Grid, Ref: j, After: lastKey[j]})
		lastKey[j] = i
	}
	return seq
}

// serveBody is the part of a POST /v1/campaigns response the checks read.
type serveBody struct {
	Key            string          `json:"key"`
	CacheHit       bool            `json:"cache_hit"`
	PointsMeasured int             `json:"points_measured"`
	Campaign       json.RawMessage `json:"campaign"`
	Report         json.RawMessage `json:"report"`
}

type modelsBody struct {
	Models map[string]struct {
		Model string `json:"model"`
	} `json:"models"`
}

// serveChecks holds the first body seen per key and class for the whole
// run, across replays: every later body must be byte-identical.
type serveChecks struct {
	mu      sync.Mutex
	content map[string][]byte // key -> campaign+report bytes
	bodies  map[string][]byte // class + key -> full body
	models  map[string][]byte // key -> first /models body
}

func newServeChecks() *serveChecks {
	return &serveChecks{content: map[string][]byte{}, bodies: map[string][]byte{}, models: map[string][]byte{}}
}

// same records want under m[k] on first sight and reports whether got
// matches it.
func (c *serveChecks) same(m map[string][]byte, k string, got []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	want, ok := m[k]
	if !ok {
		m[k] = got
		return true
	}
	return bytes.Equal(want, got)
}

// serveBench is one serve-mix run: its sequence and its checks.
type serveBench struct {
	seq    serveSeq
	checks *serveChecks
}

// serveInstance is one in-process reqserve.
type serveInstance struct {
	dir    string
	reg    *obs.Registry
	sched  *campaign.Scheduler
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// benchTmp is the directory, inside the checkout, that holds the disk
// stores of the serve-mix replays.
const benchTmp = ".bench_build/tmp"

// startServer builds reqserve as cmd/reqserve does — scheduler options
// from the serve flags' defaults, a DiskStore in a temp dir, the default
// memory LRUs, serve.New, Handler — listening on a loopback port.
func startServer(tr *tracer, rc *runnerCounts, sc *storeCounts) (*serveInstance, error) {
	if err := os.MkdirAll(benchTmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(benchTmp, "serve-")
	if err != nil {
		return nil, err
	}
	in := &serveInstance{dir: dir, reg: obs.NewRegistry()}
	var flags cli.ServeFlags
	fs := flag.NewFlagSet("reqserve", flag.ContinueOnError)
	flags.Register(fs)
	if err := fs.Parse([]string{"-addr", "127.0.0.1:0", "-cache-dir", dir}); err != nil {
		return nil, err
	}
	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	opts, cleanup, err := flags.SchedulerOptions(in.reg, logf)
	if err != nil {
		return nil, err
	}
	cleanup() // a disk-only store has nothing to flush
	disk, err := campaign.OpenDiskStore(opts.Dir)
	if err != nil {
		return nil, err
	}
	opts.Dir, opts.Store = "", disk
	if tr != nil {
		opts.Store = &tracedStore{inner: disk, tr: tr, n: sc}
	}
	if in.sched, err = campaign.New(opts); err != nil {
		return nil, err
	}
	var runner serve.Runner = in.sched
	if tr != nil {
		runner = &tracedRunner{Scheduler: in.sched, tr: tr, n: rc}
	}
	if in.srv, err = serve.New(flags.ServerOptions(runner, in.reg, logf)); err != nil {
		in.sched.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", flags.Addr)
	if err != nil {
		in.sched.Close()
		return nil, err
	}
	in.base = "http://" + ln.Addr().String()
	in.hs = &http.Server{Handler: in.srv.Handler()}
	in.served = make(chan error, 1)
	go func() { in.served <- in.hs.Serve(ln) }()
	in.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return in, nil
}

// stop drains the server as a SIGTERM would, then removes its store.
func (in *serveInstance) stop() error {
	drainErr := in.srv.Drain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutErr := in.hs.Shutdown(ctx)
	<-in.served
	in.client.CloseIdleConnections()
	in.sched.Close()
	rmErr := os.RemoveAll(in.dir)
	for _, err := range []error{drainErr, shutErr, rmErr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// opKey is the campaign key an op submits or reads.
func opKey(op serveOp) string {
	app, _ := apps.ByName(op.App)
	return campaign.ComputeKey(campaign.Request{App: app, Grid: op.Grid}).String()
}

// do sends one op and checks its response; it returns the latency, the
// points the server measured for it, and an error for any failure.
func (b *serveBench) do(in *serveInstance, op serveOp, tr *tracer) (float64, int, error) {
	key := opKey(op)
	var req *http.Request
	var err error
	if op.Class == classModels {
		req, err = http.NewRequest(http.MethodGet, in.base+"/v1/campaigns/"+key+"/models", nil)
	} else {
		body, _ := json.Marshal(serve.SubmitRequest{App: op.App, Grid: op.Grid}) // plain data
		req, err = http.NewRequest(http.MethodPost, in.base+"/v1/campaigns", bytes.NewReader(body))
	}
	if err != nil {
		return 0, 0, err
	}
	id, t0 := tr.begin()
	if id != 0 {
		defer tr.linkKey(key, id)()
	}
	start := time.Now()
	resp, err := in.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := msSince(start)
	tr.end(id, 0, "serve.request", t0)
	if err != nil {
		return lat, 0, err
	}
	if resp.StatusCode/100 != 2 {
		return lat, 0, fmt.Errorf("%s %s: HTTP %d: %s", op.Class, key, resp.StatusCode, bytes.TrimSpace(body))
	}
	if op.Class == classModels {
		return lat, 0, b.checkModels(key, body)
	}
	var sb serveBody
	if err := json.Unmarshal(body, &sb); err != nil {
		return lat, 0, fmt.Errorf("%s %s: undecodable body: %v", op.Class, key, err)
	}
	if sb.Key != key {
		return lat, 0, fmt.Errorf("%s: served key %s, want %s", op.Class, sb.Key, key)
	}
	if op.Class == classHit && !sb.CacheHit {
		return lat, 0, fmt.Errorf("hit %s: served without a cache hit", key)
	}
	content := append(append([]byte(nil), sb.Campaign...), sb.Report...)
	if !b.checks.same(b.checks.content, key, content) {
		return lat, 0, fmt.Errorf("%s %s: campaign differs from the first body for the key", op.Class, key)
	}
	if !b.checks.same(b.checks.bodies, op.Class+"/"+key, body) {
		return lat, 0, fmt.Errorf("%s %s: body differs from the first %s body for the key", op.Class, key, op.Class)
	}
	return lat, sb.PointsMeasured, nil
}

// checkModels requires a model per Table II metric and byte-identity with
// the first /models body for the key.
func (b *serveBench) checkModels(key string, body []byte) error {
	var mb modelsBody
	if err := json.Unmarshal(body, &mb); err != nil {
		return fmt.Errorf("models %s: undecodable body: %v", key, err)
	}
	for _, m := range metrics.All() {
		if mb.Models[m.String()].Model == "" {
			return fmt.Errorf("models %s: no %s model", key, m)
		}
	}
	if !b.checks.same(b.checks.models, key, body) {
		return fmt.Errorf("models %s: body differs from the first /models body for the key", key)
	}
	return nil
}

// serveTrace is the traced run's shared instrumentation for serve-mix.
type serveTrace struct {
	tr    *tracer
	run   runnerCounts
	store storeCounts
	stats campaign.Stats
	reg   regTotals
}

// replay runs the calibration kernel, sets up a fresh server, seeds the
// served set, replays the sequence once from two clients, and drains the
// server. Set-up time and
// replay results go into w. With st non-nil the replay and the drain are
// traced, the set-up is not.
func (b *serveBench) replay(w *window, hp *liveHeap, st *serveTrace) error {
	var tr *tracer
	var rc *runnerCounts
	var sc *storeCounts
	if st != nil {
		tr, rc, sc = st.tr, &st.run, &st.store
		tr.on.Store(false)
	}
	cal := calibrate()
	p0 := readProc()
	in, err := startServer(tr, rc, sc)
	if err != nil {
		return fmt.Errorf("starting reqserve: %w", err)
	}
	err = b.drive(in, w, hp, st, p0, cal)
	if serr := in.stop(); serr != nil {
		w.fail("stopping reqserve: %v", serr)
	}
	if tr != nil {
		tr.on.Store(false)
	}
	return err
}

// drive seeds the served set of a started server, then replays the
// sequence from two closed-loop clients. cal is the calibration kernel's
// CPU seconds just before the replay.
func (b *serveBench) drive(in *serveInstance, w *window, hp *liveHeap, st *serveTrace, setup0 procSample, cal float64) error {
	ops := b.seq.Ops
	done := make([]chan struct{}, len(ops))
	for i := range done {
		done[i] = make(chan struct{})
	}
	for i := 0; i < b.seq.Setup; i++ {
		if _, _, err := b.do(in, ops[i], nil); err != nil {
			return fmt.Errorf("seeding the served set: %w", err)
		}
		close(done[i])
	}
	sd := setup0.to(readProc())
	w.setup = append(w.setup, setupRound{wall: sd.Wall, cpu: sd.CPU, cpuNorm: scaleCPU(sd.CPU, cal)})
	hp.take() // the replay's heap, not the set-up's

	var tr *tracer
	stats0, reg0 := in.sched.Stats(), readRegTotals(in.reg)
	if st != nil {
		tr = st.tr
		tr.on.Store(true)
	}
	p0 := readProc()
	var mu sync.Mutex
	var next atomic.Int64
	next.Store(int64(b.seq.Setup))
	points := 0
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				op := ops[i]
				if op.After >= 0 {
					<-done[op.After]
				}
				lat, pts, err := b.do(in, op, tr)
				mu.Lock()
				w.attempted++
				w.lat = append(w.lat, lat)
				w.class[op.Class] = append(w.class[op.Class], lat)
				points += pts
				if err != nil {
					w.fail("%v", err)
				}
				mu.Unlock()
				close(done[i])
			}
		}()
	}
	wg.Wait()
	d := p0.to(readProc())
	w.sweeps = append(w.sweeps, sweepRec{ops: float64(len(ops) - b.seq.Setup),
		wall: d.Wall, cpu: d.CPU, allocMB: d.AllocMB, points: float64(points), cal: cal})
	w.heap = append(w.heap, hp.take()...)
	w.proc.add(d)
	if st != nil {
		addStats(&st.stats, subStats(in.sched.Stats(), stats0))
		st.reg.add(readRegTotals(in.reg).sub(reg0))
	}
	return nil
}

// measure replays until d has passed, then checks every /models answer
// against a fit of the campaign it names. With st non-nil the replays
// alternate between untraced and traced, ending on a traced one; the
// traced replays go to the second window.
func (b *serveBench) measure(d time.Duration, st *serveTrace) (untraced, traced *window, err error) {
	untraced = &window{class: map[string][]float64{}}
	traced = &window{class: map[string][]float64{}}
	hp := startLiveHeap()
	defer hp.finish()
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline) || (st != nil && i%2 == 1); i++ {
		w, t := untraced, (*serveTrace)(nil)
		if st != nil && i%2 == 1 {
			w, t = traced, st
		}
		if err := b.replay(w, hp, t); err != nil {
			return nil, nil, err
		}
	}
	b.checkFits(untraced)
	return untraced, traced, nil
}

// checkFits refits each campaign whose models were served, with the
// options the /models handler documents, and requires the served model
// strings to match. model_agreement is the share of keys that do.
func (b *serveBench) checkFits(w *window) {
	b.checks.mu.Lock()
	defer b.checks.mu.Unlock()
	keys := make([]string, 0, len(b.checks.models))
	for k := range b.checks.models {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	agreeing := 0
	for _, k := range keys {
		if err := fitMatches(b.checks.content[k], b.checks.models[k]); err != nil {
			w.fail("models %s: %v", k, err)
			continue
		}
		agreeing++
	}
	for i := range w.sweeps {
		w.sweeps[i].agree = ratio(float64(agreeing), float64(len(keys)))
	}
}

func fitMatches(content, body []byte) error {
	var c workload.Campaign
	if err := json.NewDecoder(bytes.NewReader(content)).Decode(&c); err != nil {
		return fmt.Errorf("decoding served campaign: %v", err)
	}
	opts := modeling.DefaultOptions()
	opts.MinPoints = min(opts.MinPoints, len(c.Grid.Procs), len(c.Grid.Ns))
	fits, _, err := workload.FitAllObserved([]*workload.Campaign{&c}, opts, 0, modeling.NewFitCache(), nil)
	if err != nil {
		return fmt.Errorf("reference fit: %v", err)
	}
	var mb modelsBody
	if err := json.Unmarshal(body, &mb); err != nil {
		return err
	}
	for _, m := range metrics.All() {
		if got, want := mb.Models[m.String()].Model, fits[0].Info[m].Model.String(); got != want {
			return fmt.Errorf("%s model %q, reference fit %q", m, got, want)
		}
	}
	return nil
}

func subStats(a, b campaign.Stats) campaign.Stats {
	return campaign.Stats{
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses,
		PointHits: a.PointHits - b.PointHits, PointMisses: a.PointMisses - b.PointMisses,
		Bytes: a.Bytes - b.Bytes, DiskErrors: a.DiskErrors - b.DiskErrors,
	}
}

// regTotals are the registry instruments the per-layer report reads.
type regTotals struct {
	fitTasks, fitHits, adaptiveRounds, coalesced, shed float64
	fitSeconds                                         float64
}

func readRegTotals(r *obs.Registry) regTotals {
	s := r.Snapshot()
	return regTotals{
		fitTasks:       float64(s.Counters[modeling.MetricFitTasks]),
		fitHits:        float64(s.Counters[modeling.MetricFitCacheHits]),
		adaptiveRounds: float64(s.Counters[obs.MetricAdaptiveRounds]),
		coalesced:      float64(s.Counters[obs.MetricServerCoalesced]),
		shed:           float64(s.Counters[obs.MetricServerShed]),
		fitSeconds:     s.Histograms[modeling.MetricFitSeconds].Sum,
	}
}

func (a regTotals) sub(b regTotals) regTotals {
	return regTotals{a.fitTasks - b.fitTasks, a.fitHits - b.fitHits, a.adaptiveRounds - b.adaptiveRounds,
		a.coalesced - b.coalesced, a.shed - b.shed, a.fitSeconds - b.fitSeconds}
}

func (a *regTotals) add(b regTotals) {
	a.fitTasks += b.fitTasks
	a.fitHits += b.fitHits
	a.adaptiveRounds += b.adaptiveRounds
	a.coalesced += b.coalesced
	a.shed += b.shed
	a.fitSeconds += b.fitSeconds
}
