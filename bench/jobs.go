package main

import (
	"fmt"
	"runtime"
	"time"

	"damulticast/internal/core"
	"damulticast/internal/scale"
	"damulticast/internal/sim"
	"damulticast/internal/topic"
	"damulticast/internal/xrand"
)

// The two fixed-job workloads run one job after another — build the
// topology, publish a fixed number of events, each driven to
// quiescence — until the run's time is up, and report medians over
// the jobs. Both run on one worker, so a job is a single-goroutine
// computation and its counts must repeat exactly for a seed.

const (
	jobPSucc     = 0.85
	jobMaxRounds = 200
	jobMinReps   = 3
)

// jobCounts are the counts of one repetition that must not differ
// between repetitions of one seed.
type jobCounts struct {
	delivered, owed, withinOwed int64
	intra, inter, dropped       int64
	rounds                      int
	reliability                 [3]float64 // root → leaf
	stateBytes                  int64
	quiesced                    int
}

// jobRep is one timed repetition.
type jobRep struct {
	build time.Duration
	wall  time.Duration // the publications, without the build
	cpu   time.Duration
	pubUs []float64 // wall time of each publication
	jobCounts
	allocs, allocBytes uint64
}

// job is a built topology ready to publish.
type job interface {
	// publish runs the job's publications and fills the repetition's
	// counts and per-publication times.
	publish(rep *jobRep) error
}

func chainTopics() [3]topic.Topic {
	t0, t1, t2 := sim.PaperTopics()
	return [3]topic.Topic{t0, t1, t2}
}

// simJob publishes through sim.Runner one event at a time, so each
// publication is timed on its own: Runner.Run with Publications = 1
// publishes from the next pseudo-random member and steps the network
// to quiescence.
type simJob struct {
	wl     *workloadDef
	runner *sim.Runner
	tr     *tracer
}

func simConfig(wl *workloadDef, seed int64, workers int) sim.Config {
	cfg := sim.PaperConfig(1.0, seed)
	for i := range cfg.Groups {
		cfg.Groups[i].Size = wl.groups[i]
	}
	cfg.PSucc = jobPSucc
	cfg.MaxRounds = jobMaxRounds
	cfg.Publications = 1
	cfg.Workers = workers
	return cfg
}

func (j *simJob) publish(rep *jobRep) error {
	var last *sim.Result
	for p := 0; p < j.wl.pubs; p++ {
		start := time.Now()
		res, err := j.runner.Run()
		took := time.Since(start)
		if err != nil {
			return err
		}
		rep.pubUs = append(rep.pubUs, float64(took)/1e3)
		rep.rounds += res.Rounds
		if res.Rounds < jobMaxRounds {
			rep.quiesced++
		}
		if j.tr != nil {
			at := start.Sub(j.tr.t0)
			j.tr.add(span{kind: spanSimPub, start: at, end: at + took})
		}
		last = res
	}
	// The registry is cumulative over the runner's life, so the last
	// result's totals cover every publication of the job.
	rep.delivered = last.KindTotals["delivered"]
	rep.intra = last.KindTotals["intra"]
	rep.inter = last.KindTotals["inter"]
	rep.dropped = last.KindTotals["dropped"]
	// The publisher does not deliver to itself.
	rep.owed = int64(j.wl.pubs) * int64(j.wl.population()-1)
	for i, t := range chainTopics() {
		rep.reliability[i] = last.Reliability[t]
	}
	return nil
}

// scaleJob runs all of a job's publications in one Kernel.Run: the
// kernel derives each publication's randomness from its index, so
// calling Run once per publication would repeat publication 0. A
// publication's time is therefore the job's time divided by its
// publications.
type scaleJob struct {
	wl     *workloadDef
	kernel *scale.Kernel
	tr     *tracer
}

func scaleConfig(wl *workloadDef, seed int64, workers int) scale.Config {
	chain := chainTopics()
	cfg := scale.Config{
		Params:       core.DefaultParams(),
		PSucc:        jobPSucc,
		PublishTopic: chain[2],
		Publications: wl.pubs,
		MaxRounds:    jobMaxRounds,
		Seed:         seed,
		Workers:      workers,
	}
	for i, t := range chain {
		cfg.Groups = append(cfg.Groups, scale.GroupSpec{Topic: t, Size: wl.groups[i]})
	}
	return cfg
}

func (j *scaleJob) publish(rep *jobRep) error {
	start := time.Now()
	res, err := j.kernel.Run()
	took := time.Since(start)
	if err != nil {
		return err
	}
	for p := 0; p < j.wl.pubs; p++ {
		rep.pubUs = append(rep.pubUs, float64(took)/1e3/float64(j.wl.pubs))
	}
	if j.tr != nil {
		at := start.Sub(j.tr.t0)
		j.tr.add(span{kind: spanSimPub, n: j.wl.pubs, start: at, end: at + took})
	}
	rep.rounds = res.Rounds
	rep.delivered = res.KindTotals["delivered"]
	rep.intra = res.KindTotals["intra"]
	rep.inter = res.KindTotals["inter"]
	rep.dropped = res.KindTotals["dropped"]
	rep.stateBytes = res.StateBytes
	rep.owed = int64(j.wl.pubs) * int64(j.wl.population()-1)
	// Kernel.Run stops a publication at MaxRounds; fewer rounds in
	// total than the cap of a single one means every one quiesced.
	if res.Rounds < jobMaxRounds {
		rep.quiesced = j.wl.pubs
	}
	for i, t := range chainTopics() {
		rep.reliability[i] = res.Reliability[t]
	}
	return nil
}

func buildJob(wl *workloadDef, seed int64, workers int, tr *tracer) (job, error) {
	if wl.Kind == kindScale {
		k, err := scale.New(scaleConfig(wl, seed, workers))
		if err != nil {
			return nil, err
		}
		return &scaleJob{wl: wl, kernel: k, tr: tr}, nil
	}
	r, err := sim.NewRunner(simConfig(wl, seed, workers))
	if err != nil {
		return nil, err
	}
	return &simJob{wl: wl, runner: r, tr: tr}, nil
}

// runRep builds the job and runs its publications once.
func runRep(wl *workloadDef, seed int64, workers int, tr *tracer) (*jobRep, job, error) {
	rep := &jobRep{}
	start := time.Now()
	j, err := buildJob(wl, seed, workers, tr)
	if err != nil {
		return nil, nil, err
	}
	rep.build = time.Since(start)

	// ReadMemStats, unlike runtime/metrics, flushes every P's allocation
	// cache first, so a job that allocates a few hundred objects still
	// counts them all.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start = time.Now()
	if err := j.publish(rep); err != nil {
		return nil, nil, err
	}
	rep.wall = time.Since(start)
	rep.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	rep.allocs, rep.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	// A delivery counts as within the limit when its publication
	// quiesced before MaxRounds; one that hit the cap may have been cut
	// short, so its deliveries are not credited.
	rep.withinOwed = rep.delivered * int64(rep.quiesced) / int64(wl.pubs)
	return rep, j, nil
}

// jobResult is what a fixed-job run measured.
type jobResult struct {
	reps    []*jobRep
	total   jobCounts // summed over reps
	heapMiB float64
	wrong   []string
}

// jobSeed derives repetition j's seed from the run's. Every
// repetition is a different job, so a run's counts average over
// thousands of distinct publications and depend little on its seed.
func jobSeed(seed int64, j int) int64 { return xrand.SeedFor(seed, fmt.Sprintf("bench:job:%d", j)) }

// runJobs runs one job after another until the time is up (at least
// jobMinReps), then runs the first job once more and checks that its
// counts repeat exactly: a job is a single-goroutine computation of
// its seed, so any difference is wrong output.
func runJobs(wl *workloadDef, seed int64, seconds float64, tr *tracer) (*jobResult, error) {
	res := &jobResult{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var standing job
	for j := 0; j < jobMinReps || time.Now().Before(deadline); j++ {
		rep, built, err := runRep(wl, jobSeed(seed, j), 1, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", wl.Name, j, err)
		}
		res.reps = append(res.reps, rep)
		res.total.add(rep.jobCounts)
		standing = built
	}
	res.heapMiB = heapAfterGCMiB()
	runtime.KeepAlive(standing) // the last topology stands until the heap has been read

	again, _, err := runRep(wl, jobSeed(seed, 0), 1, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: repeated repetition: %w", wl.Name, err)
	}
	if again.jobCounts != res.reps[0].jobCounts {
		res.wrong = append(res.wrong, fmt.Sprintf("%s: job 0 counted %+v, then %+v for the same seed",
			wl.Name, res.reps[0].jobCounts, again.jobCounts))
	}
	return res, nil
}

// perJob maps f over the jobs.
func perJob(reps []*jobRep, f func(*jobRep) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

func (c *jobCounts) add(o jobCounts) {
	c.delivered += o.delivered
	c.owed += o.owed
	c.withinOwed += o.withinOwed
	c.intra += o.intra
	c.inter += o.inter
	c.dropped += o.dropped
	c.rounds += o.rounds
	c.quiesced += o.quiesced
}
