// Package loadgen drives a live fediserve network with production-shaped
// load: open-loop (Poisson) arrivals at a configurable target rate, with
// domain and timeline popularity sampled from the world itself — the
// generator's Zipf-Mandelbrot instance sizes become the request mix, so a
// handful of big instances absorb most of the traffic, exactly the §4
// concentration the paper measures. A plan is built once from a seed
// (same seed ⇒ same request sequence, byte for byte) and then replayed by
// a worker pool over real TCP with keep-alive connections; per-request
// latency lands in a stats.LatencyHistogram and is reported as
// p50/p99/p999 + throughput.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dataset"
)

// Request is one planned arrival: a path to fetch from a domain at a fixed
// offset from the run's start. Arrival times are part of the plan (not
// generated during the run) so a run is open-loop: the schedule never
// waits for responses, and a saturated server shows up as queueing delay
// in the measured latency rather than as a silently reduced request rate.
type Request struct {
	At     time.Duration
	Domain string
	Path   string
}

// Config shapes a load plan.
type Config struct {
	// Seed drives every random choice in the plan.
	Seed uint64
	// Rate is the target open-loop arrival rate in requests/second.
	Rate float64
	// Duration is the planned window; the plan holds every Poisson arrival
	// that falls inside it (≈ Rate·Duration requests). Ignored when Count
	// is set.
	Duration time.Duration
	// Count, when positive, fixes the exact number of requests instead of
	// deriving it from Rate·Duration (tests want exact counts).
	Count int
}

// BuildPlan samples a request plan from the world. Domains are drawn with
// probability proportional to their registered-user count — the world's
// Zipf-Mandelbrot size law — so the big-instance hot path dominates, and
// follower-page targets within an instance are rank-skewed the same way.
// The endpoint mix is 60% timeline / 20% instance API / 10% peers / 10%
// followers; instances that refuse timeline crawling still receive
// non-timeline traffic. The plan is sorted by arrival time (Poisson arrivals are
// generated in order, so this is a no-op sort kept as a guarantee).
func BuildPlan(w *dataset.World, cfg Config) ([]Request, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: rate must be positive, got %g", cfg.Rate)
	}
	if cfg.Count <= 0 && cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: need a positive duration or an explicit count")
	}
	if len(w.Instances) == 0 {
		return nil, fmt.Errorf("loadgen: world has no instances")
	}

	// Cumulative user-count weights over instances (minimum 1 per
	// instance so empty instances remain reachable).
	cum := make([]float64, len(w.Instances))
	users := make([][]int32, len(w.Instances)) // user ids per instance, id order
	for i := range w.Users {
		u := &w.Users[i]
		users[u.Instance] = append(users[u.Instance], u.ID)
	}
	var total float64
	for i := range w.Instances {
		wt := float64(len(users[i]))
		if wt < 1 {
			wt = 1
		}
		total += wt
		cum[i] = total
	}

	r := rand.New(rand.NewSource(int64(cfg.Seed)))
	// Variables, not constants: the thresholds below are float64 sums.
	tlW, inW, peW, foW := 0.6, 0.2, 0.1, 0.1
	mixTotal := tlW + inW + peW + foW

	var plan []Request
	if cfg.Count > 0 {
		plan = make([]Request, 0, cfg.Count)
	} else {
		plan = make([]Request, 0, int(cfg.Rate*cfg.Duration.Seconds())+16)
	}
	var at time.Duration
	for {
		// Poisson process: exponential inter-arrival gaps at the target rate.
		gap := -math.Log(1-r.Float64()) / cfg.Rate
		at += time.Duration(gap * float64(time.Second))
		if cfg.Count > 0 {
			if len(plan) >= cfg.Count {
				break
			}
		} else if at > cfg.Duration {
			break
		}

		// Zipf-weighted domain choice.
		x := r.Float64() * total
		ii := sort.SearchFloat64s(cum, x)
		if ii >= len(cum) {
			ii = len(cum) - 1
		}
		inst := &w.Instances[ii]

		var path string
		switch pick := r.Float64() * mixTotal; {
		case pick < tlW:
			path = timelinePath(r)
		case pick < tlW+inW:
			path = "/api/v1/instance"
		case pick < tlW+inW+peW:
			path = "/api/v1/instance/peers"
		default:
			path = followerPath(r, users[ii])
		}
		plan = append(plan, Request{At: at, Domain: inst.Domain, Path: path})
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].At < plan[j].At })
	return plan, nil
}

// timelinePath builds one public-timeline request: mostly the head page
// (what every client and crawler hits first), a deep page with max_id for
// a fifth of them, local vs federated split 50/50.
func timelinePath(r *rand.Rand) string {
	local := r.Intn(2) == 0
	maxID := int64(0)
	if r.Float64() < 0.2 {
		maxID = 1 + r.Int63n(200)
	}
	path := "/api/v1/timelines/public?limit=20"
	if local {
		path += "&local=true"
	}
	if maxID > 0 {
		path += fmt.Sprintf("&max_id=%d", maxID)
	}
	return path
}

// followerPath picks a follower page for a rank-skewed account choice:
// squaring the uniform draw concentrates traffic on low-id (early, large)
// accounts, echoing the paper's user-popularity skew. Instances with no
// users fall back to the instance API (the 404 would say nothing about
// the serving path).
func followerPath(r *rand.Rand, ids []int32) string {
	if len(ids) == 0 {
		return "/api/v1/instance"
	}
	f := r.Float64()
	idx := int(f * f * float64(len(ids)))
	if idx >= len(ids) {
		idx = len(ids) - 1
	}
	return fmt.Sprintf("/users/u%d/followers", ids[idx])
}
