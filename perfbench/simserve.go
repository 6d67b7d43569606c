package main

import (
	"context"
	"fmt"
	"time"

	"hetpipe/internal/core"
	"hetpipe/internal/serve"
	"hetpipe/internal/sim"
)

// The sim-serve workload drives VGG-19 on the paper cluster under the NP
// allocation — four replicas of different GPU types, so class-aware routing
// has fast and slow replicas to choose from — with seeded Poisson traffic,
// 20% latency-critical, at fixed offered rates from a nearly idle fleet to
// heavy batching.
var serveRates = []float64{40, 250, 1000, 2000, 2800, 3500}

const (
	serveRequests = 30000
	// serveFixedRate is the rate whose p99 latency model_time_s reports.
	serveFixedRate = 1000
	// serveP99Limit is the latency limit model_rate's highest sustainable
	// rate must meet, in virtual seconds.
	serveP99Limit = 0.4
)

type simServe struct {
	dep      *core.Deployment
	traffics []*serve.Traffic
}

func setupSimServe(seed int64, traced bool) (runner, error) {
	dep, err := coreDeployment(simModel, "NP", "", 1, 0, core.PlacementDefault)
	if err != nil {
		return nil, err
	}
	base, err := serve.ParseTraffic(fmt.Sprintf("poisson:r%g:n%d:seed%d:crit0.2", serveRates[0], serveRequests, seed))
	if err != nil {
		return nil, err
	}
	s := &simServe{dep: dep}
	for _, r := range serveRates {
		s.traffics = append(s.traffics, base.WithRate(r))
	}
	return s, nil
}

// servedPoint is one offered rate's serving run.
type servedPoint struct {
	res   *serve.Result
	took  time.Duration
	fired uint64 // events the run's engine fired
}

// curve serves every rate once, each on a fresh engine as serve.Run does,
// and checks that each run drained its whole offer.
func (s *simServe) curve(ctx context.Context, tr *tracer) ([]servedPoint, error) {
	var out []servedPoint
	for _, t := range s.traffics {
		eng := sim.New()
		id := tr.begin("serve.RunOn", -1)
		start := time.Now()
		r, err := serve.RunOn(ctx, eng, s.dep, t, serve.Options{})
		took := time.Since(start)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("rate %g: %w", t.Rate, err)
		}
		if r.Served != r.Offered || r.Offered != t.N {
			return nil, fmt.Errorf("rate %g: served %d of %d offered (%d generated)", t.Rate, r.Served, r.Offered, t.N)
		}
		out = append(out, servedPoint{res: r, took: took, fired: eng.Fired()})
	}
	return out, nil
}

func (s *simServe) op(ctx context.Context, tr *tracer) (opResult, error) {
	points, err := s.curve(ctx, tr)
	if err != nil {
		return opResult{}, err
	}
	d := newDigester()
	var res opResult
	for i, p := range points {
		r, rate := p.res, serveRates[i]
		d.add(rate, r.Duration, r.ThroughputRPS, r.Batches, r.MeanBatchFill,
			r.Latency.String(), r.Critical.String(), r.Bulk.String())
		res.items += r.Served
		if rate == serveFixedRate {
			res.modelTime = r.Latency.P99
		}
		// The highest offered rate that meets the p99 limit while keeping
		// up with the offer (served within 5% of offered).
		if r.Latency.P99 <= serveP99Limit && r.ThroughputRPS >= 0.95*rate && rate > res.modelRate {
			res.modelRate = rate
		}
	}
	if res.modelRate == 0 {
		return opResult{}, fmt.Errorf("no offered rate meets the %g s p99 limit", serveP99Limit)
	}
	d.add(res.modelRate, res.modelTime)
	res.digest = d.sum()
	res.info = fmt.Sprintf("rates=%v p99_at_%g=%.6g s max_rps_within_%gs=%g", serveRates, float64(serveFixedRate), res.modelTime, serveP99Limit, res.modelRate)
	return res, nil
}

// probe serves the curve once more, counting the events and batches.
func (s *simServe) probe(ctx context.Context, tr *tracer) (map[string]float64, error) {
	points, err := s.curve(ctx, tr)
	if err != nil {
		return nil, err
	}
	var busy time.Duration
	var events uint64
	var requests, batches int
	for _, p := range points {
		busy += p.took
		events += p.fired
		requests += p.res.Served
		batches += p.res.Batches
	}
	return map[string]float64{
		"serve.busy_s":         busy.Seconds(),
		"serve.ns_per_request": float64(busy.Nanoseconds()) / float64(requests),
		"serve.events":         float64(events),
		"serve.batches":        float64(batches),
		"serve.mean_fill":      float64(requests) / float64(batches),
	}, nil
}
