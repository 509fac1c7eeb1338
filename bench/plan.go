package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dataset"
)

// The request plan is generated here, not by internal/loadgen, so that an
// edit to the product's load generator cannot move the workload. It has
// loadgen.BuildPlan's shape: domains drawn in proportion to their user
// counts (the world's Zipf-Mandelbrot sizes), endpoints 60/20/10/10
// timeline/instance/peers/followers, a fifth of timeline requests paging
// deep with max_id, follower targets skewed to low-id accounts.

// A pageKey is one distinct (domain, path) the plan asks for.
type pageKey struct {
	domain  int32 // index into plan.domains
	path    string
	blocked bool // a timeline on an instance that refuses crawling: 403
}

// A planOp is one planned operation. Revalidation and writes are fixed by
// the plan, so the share of each never depends on what a worker remembers.
type planOp struct {
	key        int32 // index into plan.keys; for a write, only its domain counts
	revalidate bool  // send If-None-Match with the domain's current tag
	write      bool  // POST /inbox to the key's domain instead of the GET
}

type plan struct {
	domains []string
	keys    []pageKey
	ops     []planOp
}

const (
	writeEvery    = 20 // serve-churn: every 20th op is an inbox delivery
	timelineLimit = 20
)

// buildPlan draws n operations from w. Exactly half revalidate; with churn
// set, every writeEvery-th is a write.
func buildPlan(w *dataset.World, seed uint64, n int, churn bool) *plan {
	p := &plan{domains: make([]string, len(w.Instances))}
	users := make([][]int32, len(w.Instances))
	for i := range w.Users {
		u := &w.Users[i]
		users[u.Instance] = append(users[u.Instance], u.ID)
	}
	cum := make([]float64, len(w.Instances))
	var total float64
	for i := range w.Instances {
		p.domains[i] = w.Instances[i].Domain
		total += max(float64(len(users[i])), 1) // empty instances stay reachable
		cum[i] = total
	}

	r := rand.New(rand.NewSource(int64(seed)))
	keyOf := make(map[pageKey]int32)
	p.ops = make([]planOp, n)
	for i := range p.ops {
		di := min(sort.SearchFloat64s(cum, r.Float64()*total), len(cum)-1)
		k := pageKey{domain: int32(di)}
		switch pick := r.Float64(); {
		case pick < 0.6:
			k.path = timelinePath(r)
			k.blocked = w.Instances[di].BlocksCrawl
		case pick < 0.8:
			k.path = "/api/v1/instance"
		case pick < 0.9:
			k.path = "/api/v1/instance/peers"
		default:
			k.path = followerPath(r, users[di])
		}
		ki, ok := keyOf[k]
		if !ok {
			ki = int32(len(p.keys))
			keyOf[k] = ki
			p.keys = append(p.keys, k)
		}
		p.ops[i] = planOp{key: ki, write: churn && i%writeEvery == writeEvery-1}
	}
	// Exactly half revalidate, in seeded random positions so that no
	// worker's stride lines up with them.
	for _, i := range r.Perm(n)[:n/2] {
		p.ops[i].revalidate = true
	}
	return p
}

func timelinePath(r *rand.Rand) string {
	path := fmt.Sprintf("/api/v1/timelines/public?limit=%d", timelineLimit)
	if r.Intn(2) == 0 {
		path += "&local=true"
	}
	if r.Float64() < 0.2 {
		path += fmt.Sprintf("&max_id=%d", 1+r.Int63n(200))
	}
	return path
}

// followerPath squares the uniform draw so early, large accounts get most
// of the traffic. An instance without users gets the instance API instead.
func followerPath(r *rand.Rand, ids []int32) string {
	if len(ids) == 0 {
		return "/api/v1/instance"
	}
	f := r.Float64()
	return fmt.Sprintf("/users/u%d/followers", ids[min(int(f*f*float64(len(ids))), len(ids)-1)])
}
