package scenario

import (
	"fmt"
	"sort"
)

// builders maps scenario names to their constructors. Seed 0 means the
// scenario's default seed (the one its assertions are tuned for).
var builders = map[string]func(seed uint64) *Scenario{
	"chaos-storm":         ChaosStorm,
	"outage-storm":        OutageStorm,
	"churn-during-crawl":  ChurnDuringCrawl,
	"dht-churn":           DHTChurn,
	"live-replication":    LiveReplication,
	"incremental-recrawl": IncrementalRecrawl,
	"fleet-worker-death":  FleetWorkerDeath,
}

// Names lists the registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName builds the named scenario (seed 0 = its default seed).
func ByName(name string, seed uint64) (*Scenario, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	return b(seed), nil
}
