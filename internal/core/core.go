// Package core is the high-level entry point of the reproduction: build or
// load a world, then run any of the paper's experiments by id. It glues the
// generator, the analyses and the baselines together, and renders
// paper-style text reports. cmd/fedibench is a thin wrapper around this
// package.
package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/replication"
	"repro/internal/stats"
	"repro/internal/twitter"
)

// Scale selects a world size.
type Scale string

// Available scales.
const (
	ScaleTiny  Scale = "tiny"
	ScaleSmall Scale = "small"
	ScalePaper Scale = "paper"
)

// ConfigForScale returns the generator preset for a scale.
func ConfigForScale(s Scale, seed uint64) (gen.Config, error) {
	switch s {
	case ScaleTiny:
		return gen.TinyConfig(seed), nil
	case ScaleSmall:
		return gen.SmallConfig(seed), nil
	case ScalePaper:
		return gen.PaperConfig(seed), nil
	default:
		return gen.Config{}, fmt.Errorf("core: unknown scale %q (tiny|small|paper)", s)
	}
}

// LoadOrBuild loads the world file path or, when path is empty, generates
// the world at scale s and seed: every command's -world / -scale / -seed.
func LoadOrBuild(path string, s Scale, seed uint64) (*dataset.World, error) {
	if path != "" {
		return dataset.LoadFile(path)
	}
	cfg, err := ConfigForScale(s, seed)
	if err != nil {
		return nil, err
	}
	return gen.Generate(cfg), nil
}

// Experiment is one reproducible paper artefact.
type Experiment struct {
	ID    string // e.g. "fig12", "tab1"
	Title string
	Run   func(w *dataset.World, out io.Writer) error
}

// Experiments returns the full per-experiment index (DESIGN.md), in paper
// order. The experiments of one list share one Twitter baseline graph and
// one §5.2 placement state.
func Experiments() []Experiment {
	tw := new(twitterBaseline)
	rep := new(placement)
	return []Experiment{
		{"fig1", "Fig 1: instances/users/toots over time", runFig1},
		{"fig2a", "Fig 2(a): per-instance users & toots CDF, open vs closed", runFig2a},
		{"fig2b", "Fig 2(b): shares by registration type", runFig2b},
		{"fig2c", "Fig 2(c): weekly active users", runFig2c},
		{"fig3", "Fig 3: instance categories", runFig3},
		{"fig4", "Fig 4: prohibited/allowed activities", runFig4},
		{"fig5", "Fig 5: hosting countries and ASes", runFig5},
		{"fig6", "Fig 6: federated links between countries", runFig6},
		{"fig7", "Fig 7: instance downtime CDF", runFig7},
		{"fig8", "Fig 8: daily downtime by instance size vs Twitter", runFig8},
		{"fig9a", "Fig 9(a): certificate authorities", runFig9a},
		{"fig9b", "Fig 9(b): certificate-expiry outages", runFig9b},
		{"tab1", "Table 1: AS-wide failures", runTab1},
		{"fig10", "Fig 10: continuous outage durations", runFig10},
		{"fig11", "Fig 11: degree distributions", tw.runFig11},
		{"tab2", "Table 2: top-10 instances", runTab2},
		{"fig12", "Fig 12: removing top users (vs Twitter)", tw.runFig12},
		{"fig13a", "Fig 13(a): removing top instances from GF", runFig13a},
		{"fig13b", "Fig 13(b): removing top ASes from GF", runFig13b},
		{"fig14", "Fig 14: home vs remote toots", runFig14},
		{"fig15", "Fig 15: toot availability without/with subscription replication", rep.runFig15},
		{"fig16", "Fig 16: random replication", rep.runFig16},
		{"ext-blocking", "Extension (§7): graph impact of instance blocking", runExtBlocking},
		{"ext-capacity", "Extension (§5.2): capacity-weighted replica placement", rep.runExtCapacity},
		{"ext-dht", "Extension (§5.2): DHT-indexed toot discovery under failures", rep.runExtDHT},
	}
}

func runExtBlocking(w *dataset.World, out io.Writer) error {
	r := analysis.ExtBlocking(w)
	fmt.Fprintf(out, "blocking instances: %d (%d directed blocked pairs)\n", r.BlockingInstances, r.BlockedPairs)
	fmt.Fprintf(out, "federation links severed: %.1f%%; follow relationships severed: %.2f%%\n",
		r.FedLinksCutPct, r.SocialEdgesCutPct)
	fmt.Fprintf(out, "federation LCC: %.3f → %.3f of instances; user coverage after: %.1f%%\n",
		r.LCCBefore, r.LCCAfter, 100*r.UserCoverageAfter)
	return nil
}

func (p *placement) runExtCapacity(w *dataset.World, out io.Writer) error {
	topN := min(50, len(w.Instances)/4)
	r := analysis.ExtCapacity(w, p.experiment(w), 2, topN, 12)
	var cells [][]string
	step := max(topN/10, 1)
	for i := 0; i < len(r.Removed); i += step {
		cells = append(cells, []string{
			analysis.I(r.Removed[i]),
			analysis.F(r.Uniform[i], 1),
			analysis.F(r.Capacity[i], 1),
			analysis.F(r.InverseCapacity[i], 1),
		})
	}
	if _, err := io.WriteString(out, analysis.Table("toot availability (%) with 2 replicas, by placement weighting:",
		[]string{"removed", "uniform", "∝capacity", "∝1/capacity"}, cells)); err != nil {
		return err
	}
	fmt.Fprintln(out, "→ capacity-proportional placement piles replicas onto the very instances")
	fmt.Fprintln(out, "  whose failure is being survived; §5.2's S-Rep pathology, reproduced for W-Rep")
	return nil
}

func (p *placement) runExtDHT(w *dataset.World, out io.Writer) error {
	topN := min(100, len(w.Instances)/4)
	r := analysis.ExtDHT(w, p.experiment(w), topN, max(topN/10, 1))
	fmt.Fprintf(out, "ring: %d nodes, %d indexed authors, k=%d index replication\n",
		r.Nodes, r.IndexedKeys, r.Replication)
	fmt.Fprintf(out, "routing: mean %.1f hops, max %d (log2(n)=%.1f)\n",
		r.MeanHops, r.MaxHops, log2(float64(r.Nodes)))
	var cells [][]string
	for i := range r.Removed {
		cells = append(cells, []string{
			analysis.I(r.Removed[i]), analysis.F(r.IndexUpPct[i], 1), analysis.F(r.DiscoverPct[i], 1),
		})
	}
	_, err := io.WriteString(out, analysis.Table("under top-N instance removal (by toots):",
		[]string{"removed", "index-up%", "discoverable%"}, cells))
	return err
}

func log2(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log2(x)
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q", id)
}

// RunAll executes every experiment against the world on a bounded worker
// pool (GOMAXPROCS workers) and writes a combined report. Experiments are
// independent and the world is read-only during analysis, so they run
// concurrently into private buffers, the heaviest first (heavyFirst); the
// report is then assembled strictly in experiment order, so the output is
// byte-identical to a sequential run (DESIGN.md). On failure the
// experiments preceding the failing one (plus its own partial output) are
// written before the error is returned, matching the sequential semantics.
func RunAll(w *dataset.World, out io.Writer) error {
	exps := Experiments()
	return runExperiments(w, out, exps, dispatchOrder(exps))
}

// heavyFirst is the order RunAll hands out its longest experiments in,
// before the rest: longest first by traced core.exp.*_s on the benchmark's
// world (fig12 26 ms, ext-capacity 22, ext-dht 11, fig16 7, fig15 5; no
// other above 5). fig12 builds the Twitter graph it shares with fig11, so
// fig11, whose traced 20 ms is that graph, takes ~2 ms when paper order
// reaches it. Handed out in paper order, fig11 started 15th and
// ext-capacity 24th of 25, and the pool's tail ran on one core.
var heavyFirst = []string{"fig12", "ext-capacity", "ext-dht", "fig16", "fig15"}

// dispatchOrder lists the indices of exps in the order the pool hands them
// out: those heavyFirst names, in its order, then the rest in list order.
func dispatchOrder(exps []Experiment) []int {
	order := make([]int, 0, len(exps))
	first := make([]bool, len(exps))
	for _, id := range heavyFirst {
		if i := slices.IndexFunc(exps, func(e Experiment) bool { return e.ID == id }); i >= 0 {
			order, first[i] = append(order, i), true
		}
	}
	for i := range exps {
		if !first[i] {
			order = append(order, i)
		}
	}
	return order
}

// runExperiments is RunAll over an explicit experiment list, handed out to
// the pool in the given order (a permutation of the list's indices); tests
// drive failure and ordering behaviour through it.
func runExperiments(w *dataset.World, out io.Writer, exps []Experiment, order []int) error {
	type result struct {
		buf bytes.Buffer
		err error
	}
	results := make([]result, len(exps))
	workers := max(min(runtime.GOMAXPROCS(0), len(exps)), 1)
	idx := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i].err = exps[i].Run(w, &results[i].buf)
			}
		}()
	}
	for _, i := range order {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i := range exps {
		fmt.Fprintf(out, "==== %s — %s\n", exps[i].ID, exps[i].Title)
		if _, err := out.Write(results[i].buf.Bytes()); err != nil {
			return err
		}
		if results[i].err != nil {
			return fmt.Errorf("core: %s: %w", exps[i].ID, results[i].err)
		}
		fmt.Fprintln(out)
	}
	return nil
}

func runFig1(w *dataset.World, out io.Writer) error {
	series := analysis.Fig1Growth(w)
	step := len(series) / 12
	if step < 1 {
		step = 1
	}
	var rows [][]string
	for i := 0; i < len(series); i += step {
		p := series[i]
		rows = append(rows, []string{
			dataset.Day(p.Day).Format("2006-01-02"),
			analysis.I(p.Instances), analysis.I(p.Users), analysis.F(p.Toots, 0),
		})
	}
	last := series[len(series)-1]
	rows = append(rows, []string{
		dataset.Day(last.Day).Format("2006-01-02"),
		analysis.I(last.Instances), analysis.I(last.Users), analysis.F(last.Toots, 0),
	})
	_, err := io.WriteString(out, analysis.Table("", []string{"date", "instances", "users", "toots"}, rows))
	return err
}

func runFig2a(w *dataset.World, out io.Writer) error {
	r := analysis.Fig2aOpenClosedCDF(w)
	fmt.Fprintf(out, "users/instance  open:   %s\n", analysis.CDFSummary(r.OpenUsers))
	fmt.Fprintf(out, "users/instance  closed: %s\n", analysis.CDFSummary(r.ClosedUsers))
	fmt.Fprintf(out, "toots/instance  open:   %s\n", analysis.CDFSummary(r.OpenToots))
	fmt.Fprintf(out, "toots/instance  closed: %s\n", analysis.CDFSummary(r.ClosedToots))
	return analysis.WriteFidelity(out, "fig2a", r)
}

func runFig2b(w *dataset.World, out io.Writer) error {
	r := analysis.Fig2bOpenClosedShares(w)
	rows := [][]string{
		{"open", analysis.F(r.OpenInstancesPct, 1), analysis.F(r.OpenTootsPct, 1), analysis.F(r.OpenUsersPct, 1), analysis.F(r.OpenTootsPerCapita, 1)},
		{"closed", analysis.F(r.ClosedInstancesPct, 1), analysis.F(r.ClosedTootsPct, 1), analysis.F(r.ClosedUsersPct, 1), analysis.F(r.ClosedTootsPerCapita, 1)},
	}
	_, err := io.WriteString(out, analysis.Table("", []string{"registrations", "instances%", "toots%", "users%", "toots/capita"}, rows))
	return err
}

func runFig2c(w *dataset.World, out io.Writer) error {
	r := analysis.Fig2cActiveUsers(w)
	fmt.Fprintf(out, "active%%  all:    %s\n", analysis.CDFSummary(r.All))
	fmt.Fprintf(out, "active%%  open:   %s\n", analysis.CDFSummary(r.Open))
	fmt.Fprintf(out, "active%%  closed: %s\n", analysis.CDFSummary(r.Closed))
	return analysis.WriteFidelity(out, "fig2c", r)
}

func runFig3(w *dataset.World, out io.Writer) error {
	rows, categorized := analysis.Fig3Categories(w)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{string(r.Category),
			analysis.F(r.InstancesPct, 1), analysis.F(r.TootsPct, 1), analysis.F(r.UsersPct, 1)})
	}
	if err := analysis.WriteFidelity(out, "fig3", categorized); err != nil {
		return err
	}
	_, err := io.WriteString(out, analysis.Table("", []string{"category", "instances%", "toots%", "users%"}, cells))
	return err
}

func runFig4(w *dataset.World, out io.Writer) error {
	prohibited, allowed, allowAll := analysis.Fig4Activities(w)
	if err := analysis.WriteFidelity(out, "fig4", allowAll); err != nil {
		return err
	}
	mk := func(title string, rows []analysis.ActivityRow) string {
		var cells [][]string
		for _, r := range rows {
			cells = append(cells, []string{string(r.Activity),
				analysis.F(r.InstancesPct, 1), analysis.F(r.TootsPct, 1), analysis.F(r.UsersPct, 1)})
		}
		return analysis.Table(title, []string{"activity", "instances%", "toots%", "users%"}, cells)
	}
	if _, err := io.WriteString(out, mk("prohibited:", prohibited)); err != nil {
		return err
	}
	_, err := io.WriteString(out, mk("allowed:", allowed))
	return err
}

func runFig5(w *dataset.World, out io.Writer) error {
	countries, ases := analysis.Fig5Hosting(w, 5)
	mk := func(title string, rows []analysis.HostRow) string {
		var cells [][]string
		for _, r := range rows {
			cells = append(cells, []string{r.Name,
				analysis.F(r.InstancesPct, 1), analysis.F(r.TootsPct, 1), analysis.F(r.UsersPct, 1)})
		}
		return analysis.Table(title, []string{"host", "instances%", "toots%", "users%"}, cells)
	}
	if _, err := io.WriteString(out, mk("top-5 countries:", countries)); err != nil {
		return err
	}
	if _, err := io.WriteString(out, mk("top-5 ASes:", ases)); err != nil {
		return err
	}
	return analysis.WriteFidelity(out, "fig5", analysis.TopASUserShare(w, 3))
}

func runFig6(w *dataset.World, out io.Writer) error {
	r := analysis.Fig6CountryFlows(w, 5)
	var cells [][]string
	for _, fl := range r.Flows {
		if fl.LinksPct < 2 {
			continue // keep the report readable, like the Sankey's visual cut
		}
		cells = append(cells, []string{fl.From, fl.To, analysis.F(fl.LinksPct, 1)})
	}
	if _, err := io.WriteString(out, analysis.Table("", []string{"from", "to", "links%"}, cells)); err != nil {
		return err
	}
	return analysis.WriteFidelity(out, "fig6", r)
}

func runFig7(w *dataset.World, out io.Writer) error {
	r := analysis.Fig7Downtime(w)
	fmt.Fprintf(out, "downtime: %s\n", analysis.CDFSummary(r.Downtime))
	if err := analysis.WriteFidelity(out, "fig7", r); err != nil {
		return err
	}
	fmt.Fprintf(out, "unavailable mass when failing — users: %s\n", analysis.CDFSummary(r.Users))
	fmt.Fprintf(out, "                               toots: %s\n", analysis.CDFSummary(r.Toots))
	return nil
}

func runFig8(w *dataset.World, out io.Writer) error {
	tw := twitter.DailyDowntime(twitter.Uptime(twitter.DefaultUptimeConfig(w.Seed, w.Days)), dataset.SlotsPerDay)
	r := analysis.Fig8DailyDowntime(w, tw)
	var cells [][]string
	for _, b := range []analysis.SizeBin{analysis.BinUnder10K, analysis.Bin10K100K, analysis.Bin100K1M, analysis.BinOver1M} {
		box := r.Bins[b]
		cells = append(cells, []string{string(b), analysis.I(box.N),
			analysis.F(100*box.Median, 2), analysis.F(100*box.Mean, 2), analysis.F(100*box.Q3, 2)})
	}
	cells = append(cells, []string{"Mastodon (all)", analysis.I(r.Mastodon.N),
		analysis.F(100*r.Mastodon.Median, 2), analysis.F(100*r.Mastodon.Mean, 2), analysis.F(100*r.Mastodon.Q3, 2)})
	cells = append(cells, []string{"Twitter 2007", analysis.I(r.Twitter.N),
		analysis.F(100*r.Twitter.Median, 2), analysis.F(100*r.Twitter.Mean, 2), analysis.F(100*r.Twitter.Q3, 2)})
	if _, err := io.WriteString(out, analysis.Table("per-day downtime (%)",
		[]string{"bin", "days", "median", "mean", "p75"}, cells)); err != nil {
		return err
	}
	return analysis.WriteFidelity(out, "fig8", r)
}

func runFig9a(w *dataset.World, out io.Writer) error {
	var cells [][]string
	for _, r := range analysis.Fig9aCAFootprint(w) {
		cells = append(cells, []string{r.CA, analysis.F(r.InstancesPct, 1)})
	}
	_, err := io.WriteString(out, analysis.Table("", []string{"CA", "instances%"}, cells))
	return err
}

func runFig9b(w *dataset.World, out io.Writer) error {
	r := analysis.Fig9bCertOutages(w, 90)
	fmt.Fprintf(out, "worst day: %s with ", dataset.Day(r.WorstDay).Format("2006-01-02"))
	return analysis.WriteFidelity(out, "fig9b", r)
}

func runTab1(w *dataset.World, out io.Writer) error {
	rows := analysis.Table1ASFailures(w, 8)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("AS%d", r.ASN), analysis.I(r.Instances), analysis.I(r.Failures),
			analysis.I(r.IPs), analysis.I(r.Users), analysis.I64(r.Toots),
			r.Name, analysis.I(r.Rank), analysis.I(r.Peers),
		})
	}
	_, err := io.WriteString(out, analysis.Table("",
		[]string{"ASN", "instances", "failures", "IPs", "users", "toots", "org", "rank", "peers"}, cells))
	return err
}

func runFig10(w *dataset.World, out io.Writer) error {
	r := analysis.Fig10OutageDurations(w)
	fmt.Fprintf(out, "continuous outages ≥1 day: %s\n", analysis.CDFSummary(r.Durations))
	return analysis.WriteFidelity(out, "fig10", r)
}

// twitterBaseline builds the Twitter baseline graph that Figs 11 and 12
// compare against once for both. The graph is a pure function of its
// config, which is a pure function of the world's seed and size, so the
// config is the cache key; a list whose experiments run on another world
// rebuilds it.
type twitterBaseline struct {
	mu  sync.Mutex
	cfg twitter.GraphConfig
	g   *graph.CSR
}

func (tb *twitterBaseline) graph(w *dataset.World) *graph.CSR {
	cfg := twitter.DefaultGraphConfig(w.Seed, twitterBaselineUsers(w))
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.g == nil || tb.cfg != cfg {
		tb.cfg, tb.g = cfg, twitter.Graph(cfg)
	}
	return tb.g
}

func (tb *twitterBaseline) runFig11(w *dataset.World, out io.Writer) error {
	r := analysis.Fig11DegreeCDF(w, tb.graph(w))
	fmt.Fprintf(out, "out-degree social:     %s\n", analysis.CDFSummary(r.Social))
	fmt.Fprintf(out, "out-degree federation: %s\n", analysis.CDFSummary(r.Federation))
	fmt.Fprintf(out, "out-degree twitter:    %s\n", analysis.CDFSummary(r.Twitter))
	return nil
}

func runTab2(w *dataset.World, out io.Writer) error {
	rows := analysis.Table2TopInstances(w, 10)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Domain, analysis.I64(r.HomeToots), analysis.I(r.Users),
			analysis.I(r.UsersOD), analysis.I(r.UsersID),
			analysis.I64(r.TootsOD), analysis.I64(r.TootsID),
			analysis.I(r.InstOD), analysis.I(r.InstID),
			string(r.Operator), r.ASName, r.Country,
		})
	}
	_, err := io.WriteString(out, analysis.Table("",
		[]string{"domain", "home toots", "users", "uOD", "uID", "tOD", "tID", "iOD", "iID", "run by", "AS", "country"}, cells))
	return err
}

func (tb *twitterBaseline) runFig12(w *dataset.World, out io.Writer) error {
	series := analysis.Fig12UserRemoval(w, tb.graph(w), 20)
	return writeRemoval(out, series, 1)
}

func runFig13a(w *dataset.World, out io.Writer) error {
	topN := len(w.Instances) / 5
	series := analysis.Fig13aInstanceRemoval(w, topN)
	return writeRemoval(out, series, max(topN/10, 1))
}

func runFig13b(w *dataset.World, out io.Writer) error {
	series := analysis.Fig13bASRemoval(w, 20)
	return writeRemoval(out, series, 1)
}

func writeRemoval(out io.Writer, series []analysis.RemovalSeries, step int) error {
	for _, s := range series {
		// The optional columns are decided once per series, so every row
		// has as many cells as the header.
		withSCC, withWeight := false, false
		for _, p := range s.Points {
			withSCC = withSCC || p.SCCs >= 0
			withWeight = withWeight || p.LCCWeightFrac > 0
		}
		headers := []string{"removed", "LCC", "components"}
		if withSCC {
			headers = append(headers, "SCCs")
		}
		if withWeight {
			headers = append(headers, "userLCC")
		}
		var cells [][]string
		for i := 0; i < len(s.Points); i += step {
			p := s.Points[i]
			row := []string{analysis.I(p.Removed), analysis.F(p.LCCFrac, 3), analysis.I(p.Components)}
			if withSCC {
				row = append(row, analysis.I(p.SCCs))
			}
			if withWeight {
				row = append(row, analysis.F(p.LCCWeightFrac, 3))
			}
			cells = append(cells, row)
		}
		if _, err := io.WriteString(out, analysis.Table(s.Label, headers, cells)); err != nil {
			return err
		}
	}
	return nil
}

// placement builds the §5.2 placement state (replication.New) once for
// Figs 15, 16, ext-capacity and ext-dht. It is a pure function of the
// world it reads, so the world is the cache key.
type placement struct {
	mu  sync.Mutex
	w   *dataset.World
	exp *replication.Experiment
}

func (p *placement) experiment(w *dataset.World) *replication.Experiment {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.w != w {
		p.w, p.exp = w, replication.New(w)
	}
	return p.exp
}

func (p *placement) runFig15(w *dataset.World, out io.Writer) error {
	topInst := min(100, len(w.Instances)/4)
	r := analysis.Fig15Replication(w, p.experiment(w), topInst, 20)
	if err := writeAvailability(out, "instance removal:", r.InstanceSweeps, max(topInst/10, 1)); err != nil {
		return err
	}
	return writeAvailability(out, "AS removal:", r.ASSweeps, 2)
}

func (p *placement) runFig16(w *dataset.World, out io.Writer) error {
	topInst := min(100, len(w.Instances)/4)
	r := analysis.Fig16RandomReplication(w, p.experiment(w), topInst, 20, []int{1, 2, 3, 4, 7, 9})
	if err := analysis.WriteFidelity(out, "fig16", r); err != nil {
		return err
	}
	if err := writeAvailability(out, "instance removal (by toots):", r.InstanceSweeps, max(topInst/10, 1)); err != nil {
		return err
	}
	return writeAvailability(out, "AS removal (by toots):", r.ASSweeps, 2)
}

func writeAvailability(out io.Writer, title string, sweeps []analysis.AvailabilitySeries, step int) error {
	if len(sweeps) == 0 {
		return nil
	}
	// Group series as columns over the removal axis.
	n := len(sweeps[0].Values)
	headers := []string{"removed"}
	for _, s := range sweeps {
		label := s.Strategy
		if s.Ranking != "" {
			label = s.Strategy + " " + shortRank(s.Ranking)
		}
		headers = append(headers, label)
	}
	var cells [][]string
	for i := 0; i < n; i += step {
		row := []string{analysis.I(i)}
		for _, s := range sweeps {
			row = append(row, analysis.F(s.Values[i], 1))
		}
		cells = append(cells, row)
	}
	_, err := io.WriteString(out, analysis.Table(title, headers, cells))
	return err
}

func shortRank(r string) string {
	r = strings.TrimPrefix(r, "by ")
	fields := strings.Fields(strings.ToLower(r))
	if len(fields) == 0 {
		return r
	}
	return "(" + fields[0] + ")"
}

func runFig14(w *dataset.World, out io.Writer) error {
	r := analysis.Fig14HomeRemote(w)
	e := stats.NewECDF(r.HomeSharePct)
	fmt.Fprintf(out, "home share of federated timeline: %s\n", analysis.CDFSummary(e))
	return analysis.WriteFidelity(out, "fig14", r)
}

// twitterBaselineUsers sizes the Twitter comparison graph relative to the
// world (capped to keep paper-scale runs tractable).
func twitterBaselineUsers(w *dataset.World) int {
	n := len(w.Users)
	if n > 100000 {
		n = 100000
	}
	if n < 1000 {
		n = 1000
	}
	return n
}

// Summary produces the headline findings list (§1) for a world — the quick
// smoke-test output of examples/quickstart.
func Summary(w *dataset.World) string {
	var b strings.Builder
	users := w.InstanceUserWeights()
	toots := w.InstanceTootWeights()
	fmt.Fprintf(&b, "world: %d instances, %d users, %d toots, %d days (seed %d)\n",
		len(w.Instances), len(w.Users), w.TotalToots(), w.Days, w.Seed)
	fmt.Fprintf(&b, "finding 2 (user centralisation): top 10%% of instances hold %.1f%% of users\n",
		100*stats.TopShare(users, 0.10))
	// Finding 3: AS concentration.
	fmt.Fprintf(&b, "finding 3 (infrastructure centralisation): top-3 ASes hold %.1f%% of users\n",
		analysis.TopASUserShare(w, 3))
	// Finding 4: content centralisation.
	var top10 float64
	for _, id := range graph.TopK(toots, 10) {
		top10 += toots[id]
	}
	fmt.Fprintf(&b, "finding 4 (content centralisation): top-10 instances hold %.1f%% of toots\n",
		100*top10/stats.Sum(toots))
	return b.String()
}
