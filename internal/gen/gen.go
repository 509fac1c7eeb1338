package gen

import (
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Generate builds a complete synthetic world from the configuration. Each
// stage draws from independent deterministic per-unit random streams (see
// shard.go), so tweaking one stage's parameters does not perturb the others
// and the result is byte-identical for any cfg.Shards or GOMAXPROCS, though
// two stages may run at once.
func Generate(cfg Config) *dataset.World {
	if cfg.Instances <= 0 || cfg.Users <= 0 || cfg.Days <= 0 {
		panic("gen: Config needs positive Instances, Users and Days")
	}
	m := genInstances(cfg)
	genBlocks(cfg, m.insts)
	users, fame := genUsers(cfg, m)
	// Traces read only cfg and the finished instance rows, so they generate
	// beside the social graph and fill the core its serial tail leaves idle.
	var social, federation *graph.CSR
	var traces *sim.TraceSet
	var certOut map[int32][]int
	cfg.beside(func() {
		social = genSocial(cfg, m.insts, users, fame)
		federation = induceFederation(social, users, len(m.insts))
	}, func() { traces, certOut = genTraces(cfg, m.insts) })

	return &dataset.World{
		Seed:           cfg.Seed,
		Days:           cfg.Days,
		Instances:      m.insts,
		Users:          users,
		ASes:           asRegistryToDataset(buildASRegistry(targetASCount(cfg.Instances), countryTable())),
		Social:         social,
		Federation:     federation,
		Traces:         traces,
		CertOutageDays: certOut,
	}
}
