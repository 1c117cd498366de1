package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cpr/client"
	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/designio"
	"cpr/internal/synth"
)

// The service request mix, exact in every block of mixBlock requests:
// repeats (design-cache hits), fresh designs (full flows) and one-pin
// edits sent with base_job; 60%, 25% and 15%.
const (
	mixBlock    = 20
	blockRepeat = 12
	blockFresh  = 5

	// refLag is how many requests after its first submission a design
	// may be repeated or edited, so a client seldom waits for the other.
	refLag = 4

	// svcClients closed-loop clients, one connection each.
	svcClients = 2
	// svcPlan requests are generated per run; a run that reaches the
	// end of the plan stops early.
	svcPlan = 1000
	// qualityDesigns is how many of the first fresh designs the quality
	// metrics (objective, routed_pct) are summed over; every run waits
	// for them.
	qualityDesigns = 20
)

// svcNets is the size ladder fresh designs cycle through. Each fresh
// design is two tiles of half its nets, svcGap columns apart, so it
// routes as two regions and an edit of one tile can splice the other.
// Tile sides keep Table 2's ecc pin density.
var svcNets = []int{60, 95, 130, 165, 200}

const svcGap = 300

type reqKind int

const (
	kindFresh reqKind = iota
	kindRepeat
	kindEdit
)

var kindNames = [...]string{"miss", "hit", "eco"}

// svcRequest is one planned submission of design (an index into the
// plan's designs); an edit names the design its base job ran.
type svcRequest struct {
	kind   reqKind
	design int
	base   int
}

// svcDesign is one distinct design of the plan and what its first
// submission returned; done closes when that submission finishes.
type svcDesign struct {
	design *design.Design
	text   string
	done   chan struct{}

	ok        bool
	jobID     string
	key       string
	row       string
	objective float64
	routed    int
	nets      int
}

// svcPlanFor generates the request plan of a seed: kinds, fresh designs
// from the size ladder, and one-pin one-column edits of earlier fresh
// designs. Only the design texts reach the service.
func svcPlanFor(seed int64) ([]svcRequest, []*svcDesign, error) {
	rng := rand.New(rand.NewSource(streamSeed(seed, "service-mix")))
	var (
		reqs    []svcRequest
		designs []*svcDesign
		fresh   int // fresh designs so far
	)
	add := func(d *design.Design) (int, error) {
		var b bytes.Buffer
		if err := designio.Write(&b, d); err != nil {
			return 0, err
		}
		designs = append(designs, &svcDesign{design: d, text: b.String(), done: make(chan struct{})})
		return len(designs) - 1, nil
	}
	// The plan opens with refLag fresh designs, then repeats shuffled
	// blocks of the exact mix.
	kinds := make([]reqKind, refLag, svcPlan)
	for len(kinds) < svcPlan {
		block := make([]reqKind, mixBlock)
		for j := range block {
			switch {
			case j < blockRepeat:
				block[j] = kindRepeat
			case j < blockRepeat+blockFresh:
				block[j] = kindFresh
			default:
				block[j] = kindEdit
			}
		}
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		kinds = append(kinds, block...)
	}
	var refs, freshRefs []int // designs first sent at least refLag requests earlier
	for i, kind := range kinds[:svcPlan] {
		if i >= refLag {
			if r := reqs[i-refLag]; r.kind != kindRepeat {
				refs = append(refs, r.design)
				if r.kind == kindFresh {
					freshRefs = append(freshRefs, r.design)
				}
			}
		}
		switch kind {
		case kindRepeat:
			reqs = append(reqs, svcRequest{kind: kindRepeat, design: refs[rng.Intn(len(refs))], base: -1})
		case kindFresh:
			n := svcNets[fresh%len(svcNets)] / 2
			side := int(math.Round(math.Sqrt(float64(n)/1671)*42)) * 10
			d, err := synth.GenerateMultiRegion(synth.Spec{
				Name: fmt.Sprintf("svc%d", fresh), Nets: n, Width: side, Height: side,
				Seed: rng.Int63(),
			}, 2, svcGap)
			if err != nil {
				return nil, nil, err
			}
			id, err := add(d)
			if err != nil {
				return nil, nil, err
			}
			fresh++
			reqs = append(reqs, svcRequest{kind: kindFresh, design: id, base: -1})
		default:
			base := freshRefs[rng.Intn(len(freshRefs))]
			d, err := oneColumnEdit(designs[base].design, rng)
			if err != nil {
				return nil, nil, err
			}
			id, err := add(d)
			if err != nil {
				return nil, nil, err
			}
			reqs = append(reqs, svcRequest{kind: kindEdit, design: id, base: base})
		}
	}
	return reqs, designs, nil
}

// daemon is one running cprd.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	exit     chan error
	stopOnce sync.Once
}

// startDaemon starts cprd with its default flags on a free local port
// and waits until it answers /v1/healthz.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(filepath.Join(dir, "cprd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	dm := &daemon{cmd: cmd, base: "http://" + addr, exit: make(chan error, 1)}
	go func() { dm.exit <- cmd.Wait() }()
	c := client.New(dm.base)
	deadline := time.Now().Add(30 * time.Second)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := c.Health(hctx)
		cancel()
		if err == nil {
			return dm, nil
		}
		select {
		case werr := <-dm.exit:
			dm.exit <- werr
			return nil, fmt.Errorf("cprd exited before it was healthy: %v", werr)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			dm.stop()
			return nil, fmt.Errorf("cprd not healthy after 30s: %v", err)
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills cprd if it takes
// longer than 40 seconds. It returns once the process has exited; later
// calls return at once.
func (dm *daemon) stop() {
	dm.stopOnce.Do(func() {
		dm.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-dm.exit:
		case <-time.After(40 * time.Second):
			dm.cmd.Process.Kill()
			<-dm.exit
		}
	})
}

// svcRun holds the measurement of one service run.
type svcRun struct {
	mu      sync.Mutex
	out     *outcome
	all     []float64
	byKind  [3][]float64
	sent    []int // design index of each completed request
	lastEnd time.Time
}

// runService drives cprd with svcClients closed-loop clients over the
// seeded request plan.
func runService(cfg config) (*outcome, error) {
	if cfg.cprd == "" {
		return nil, errors.New("service_mixed needs -cprd")
	}
	out := newOutcome()
	ctx := context.Background()
	t0 := time.Now()
	plan, designs, err := svcPlanFor(cfg.seed)
	if err != nil {
		return nil, err
	}
	out.notes["inputs_s"] = time.Since(t0).Seconds()
	dir := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Set-up is starting cprd until it is healthy; the earlier daemons
	// are stopped off the clock.
	var dm *daemon
	var starts []float64
	for i := 0; i < setupRepeats; i++ {
		if dm != nil {
			dm.stop()
		}
		t0 := time.Now()
		// Another process can take the free port before cprd binds it;
		// cprd then exits and is started again on a new port.
		for attempt := 0; attempt < 3; attempt++ {
			if dm, err = startDaemon(ctx, cfg.cprd, dir); err == nil {
				break
			}
		}
		if err != nil {
			return nil, err
		}
		starts = append(starts, time.Since(t0).Seconds())
	}
	defer dm.stop()
	out.metrics["setup_s"] = quantile(starts, 0.5)

	// The clients stop taking requests once cfg.seconds have passed and
	// the quality designs have been sent.
	required, freshSeen := 0, 0
	for i, r := range plan {
		if r.kind == kindFresh {
			if freshSeen++; freshSeen == qualityDesigns {
				required = i
				break
			}
		}
	}
	run := &svcRun{out: out}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			cl := client.New(dm.base)
			cl.SetHTTPClient(&http.Client{Transport: tr})
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan) || (i > required && time.Since(start).Seconds() >= cfg.seconds) {
					return
				}
				run.submit(ctx, cl, plan[i], designs)
			}
		}()
	}
	wg.Wait()
	wall := run.lastEnd.Sub(start).Seconds()
	if int(next.Load()) >= len(plan) {
		out.notes["plan_exhausted"] = true
	}
	recordLatencies(out, run.all, wall)
	for k, lat := range run.byKind {
		out.metrics["server.submit_"+kindNames[k]+"_p50_ms"] = 1000 * quantile(lat, 0.5)
		out.notes["samples_"+kindNames[k]] = len(lat)
	}
	var obj float64
	var routed, nets, counted int
	for _, r := range plan {
		if r.kind != kindFresh {
			continue
		}
		if d := designs[r.design]; d.ok {
			obj += d.objective
			routed += d.routed
			nets += d.nets
		}
		if counted++; counted == qualityDesigns {
			break
		}
	}
	out.metrics["objective"] = obj
	out.metrics["routed_pct"] = 100 * float64(routed) / float64(max(nets, 1))

	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	st, err := client.New(dm.base).Stats(sctx)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	m := out.metrics
	m["cache.design_hit_ratio"] = st.Cache.HitRate()
	m["cache.panel_hit_ratio"] = st.PanelCache.HitRate()
	m["cache.route_hit_ratio"] = st.RouteCache.HitRate()
	m["jobs.rejected"] = float64(st.RejectedQueueFull + st.RejectedDraining)
	if h := st.QueueWaitHistogram; h != nil {
		m["jobs.queue_wait_p50_ms"] = 1000 * histQuantile(h.Bounds, h.Counts, h.Count, 0.5)
	}
	if m["peak_rss_mb"], err = peakRSSMB(strconv.Itoa(dm.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	dm.stop()
	if err := checkRerun(cfg, out, plan, designs); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := traceDesignio(cfg, out, run, designs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// submit sends one planned request and checks the answer.
func (run *svcRun) submit(ctx context.Context, cl *client.Client, r svcRequest, designs []*svcDesign) {
	d := designs[r.design]
	req := client.SubmitRequest{Design: d.text, Wait: true}
	switch r.kind {
	case kindRepeat:
		<-d.done
	case kindEdit:
		base := designs[r.base]
		<-base.done
		if !base.ok {
			run.record(r, 0, errors.New("base job failed"), d, nil)
			return
		}
		req.BaseJob = base.jobID
	}
	rctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	t0 := time.Now()
	job, err := cl.Submit(rctx, req)
	run.record(r, time.Since(t0).Seconds(), err, d, job)
}

// record stores one answer: its latency, a failure if any, and for a
// design's first submission the result later requests are compared with.
func (run *svcRun) record(r svcRequest, lat float64, err error, d *svcDesign, job *client.Job) {
	run.mu.Lock()
	defer run.mu.Unlock()
	run.out.attempted++
	run.lastEnd = time.Now()
	if err == nil && (job.State != "done" || job.Result == nil) {
		err = fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	first := r.kind != kindRepeat
	if first {
		defer close(d.done)
	}
	if err != nil {
		run.out.fail("%s submit: %v", kindNames[r.kind], err)
		return
	}
	run.all = append(run.all, lat)
	run.byKind[r.kind] = append(run.byKind[r.kind], lat)
	run.sent = append(run.sent, r.design)
	row := job.Result.Metrics.ZeroTimes().Row()
	if first {
		d.ok, d.jobID, d.key, d.row = true, job.ID, job.Key, row
		d.routed, d.nets = job.Result.Metrics.RoutedNets, job.Result.Metrics.TotalNets
		if job.Result.PinOpt != nil {
			d.objective = job.Result.PinOpt.Objective
		}
		return
	}
	if !d.ok {
		run.out.fail("repeat of a design whose first submission failed")
	} else if job.Key != d.key || row != d.row {
		run.out.fail("repeat answered key %s row %q, first submission %s %q", job.Key, row, d.key, d.row)
	}
}

// histQuantile interpolates the q-quantile of a cumulative histogram
// (counts parallel to upper bounds; count is the total).
func histQuantile(bounds []float64, counts []uint64, count uint64, q float64) float64 {
	if count == 0 {
		return 0
	}
	target := q * float64(count)
	lo, prev := 0.0, 0.0
	for i, b := range bounds {
		c := float64(counts[i])
		if c >= target {
			if c == prev {
				return b
			}
			return lo + (b-lo)*(target-prev)/(c-prev)
		}
		lo, prev = b, c
	}
	return lo
}

// checkRerun repeats in process, off the clock, the first edit of the
// plan: a cold run of its base, then a strict rerun of the edit against
// it. The rerun must equal a cold run of the edited design byte for byte
// and the answer the service gave. With -trace 1 the rerun is also run
// as separate timed layer calls, which must reproduce it.
func checkRerun(cfg config, out *outcome, plan []svcRequest, designs []*svcDesign) error {
	var r svcRequest
	for _, r = range plan {
		if r.kind == kindEdit {
			break
		}
	}
	edit, base := designs[r.design], designs[r.base]
	opts := core.Options{Workers: cfg.workers, RerunMode: core.RerunStrict}
	prev, err := core.RunContext(context.Background(), base.design, opts)
	if err != nil {
		return fmt.Errorf("base run: %w", err)
	}
	var untraced []float64
	var ref *core.RunResult
	for i := 0; i < setupRepeats && (i == 0 || cfg.trace); i++ {
		t0 := time.Now()
		ref, err = core.RerunContext(context.Background(), prev, edit.design, opts)
		if err != nil {
			return fmt.Errorf("rerun: %w", err)
		}
		untraced = append(untraced, time.Since(t0).Seconds())
	}
	out.attempted++
	checkRouted(out, edit.design, ref)
	if diff := sameAsCold(edit.design, ref, opts); diff != "" {
		out.fail("in-process rerun: %s", diff)
	}
	if !edit.ok {
		out.fail("the service failed the first edit")
	} else if row := ref.Metrics.ZeroTimes().Row(); row != edit.row || ref.PinOpt.Objective != edit.objective {
		out.fail("in-process rerun %q objective %v differs from the service's %q %v", row, ref.PinOpt.Objective, edit.row, edit.objective)
	}
	if !cfg.trace {
		return nil
	}

	inc := ref.Incremental
	out.metrics["rerun.panels_reused_ratio"] = float64(inc.Reused) / float64(inc.Panels)
	out.metrics["rerun.regions_spliced_ratio"] = float64(inc.RegionsSpliced) / float64(inc.Regions)
	out.metrics["rerun.nets_rerouted"] = float64(inc.NetsRerouted)
	runtime.GC()
	tr := newTracer()
	lr, err := layeredFlow(tr, edit.design, cfg.workers, prev.Artifacts)
	if err != nil {
		return fmt.Errorf("traced rerun: %w", err)
	}
	out.attempted++
	if diff := sameFlow(lr, ref); diff != "" {
		out.fail("traced rerun differs from untraced: %s", diff)
	}
	if lr.reusedPanels != inc.Reused || lr.splicedRegions != inc.RegionsSpliced {
		out.fail("traced rerun reused %d panels and %d regions, untraced %d and %d",
			lr.reusedPanels, lr.splicedRegions, inc.Reused, inc.RegionsSpliced)
	}
	if err := timeCodec(tr, lr.artifacts); err != nil {
		out.fail("codec: %v", err)
	}
	recordLayers(out, tr, lr, quantile(untraced, 0.5))
	return writeTrace(out, tr, cfg, "service_mixed")
}

// traceDesignio times the designio parse and hash cprd does on every
// request, on the texts of every answered request.
func traceDesignio(cfg config, out *outcome, run *svcRun, designs []*svcDesign) error {
	var read, hash float64
	for _, id := range run.sent {
		t0 := time.Now()
		d, err := designio.Read(strings.NewReader(designs[id].text))
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := designio.Hash(d); err != nil {
			return err
		}
		read += t1.Sub(t0).Seconds()
		hash += time.Since(t1).Seconds()
	}
	out.metrics["designio.read_s"], out.metrics["designio.hash_s"] = read, hash
	return nil
}
