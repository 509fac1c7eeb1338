// Package dataset defines the shared schema of the reproduction: instances,
// users, the world container tying them to the social/federation graphs and
// availability traces, and the category/activity taxonomies from §4 of the
// paper. It corresponds to the three primary datasets of §3 (Instances,
// Toots, Graphs) plus the Twitter comparison baselines.
package dataset

import (
	"time"

	"repro/internal/graph"
	"repro/internal/sim"
)

// SlotsPerDay is the probing resolution: one availability sample every five
// minutes, exactly as mnm.social probed instances in the paper.
const SlotsPerDay = 288

// EpochStart is the first day of the measurement period (April 11, 2017).
var EpochStart = time.Date(2017, time.April, 11, 0, 0, 0, 0, time.UTC)

// Category is a self-declared instance topic from the controlled taxonomy
// of Fig 3.
type Category string

// The 15 instance categories of Fig 3, plus the "generic" label that §4.2
// reports on 51.7% of categorised instances.
const (
	CatTech       Category = "tech"
	CatGames      Category = "games"
	CatArt        Category = "art"
	CatActivism   Category = "activism"
	CatMusic      Category = "music"
	CatAnime      Category = "anime"
	CatBooks      Category = "books"
	CatAcademia   Category = "academia"
	CatLGBT       Category = "lgbt"
	CatJournalism Category = "journalism"
	CatFurry      Category = "furry"
	CatSports     Category = "sports"
	CatAdult      Category = "adult"
	CatPOC        Category = "poc"
	CatHumor      Category = "humor"
	CatGeneric    Category = "generic"
)

// Categories lists the non-generic categories in the order Fig 3 plots them.
var Categories = []Category{
	CatTech, CatGames, CatArt, CatActivism, CatMusic, CatAnime, CatBooks,
	CatAcademia, CatLGBT, CatJournalism, CatFurry, CatSports, CatAdult,
	CatPOC, CatHumor,
}

// Activity is a content/behaviour class that instance policies explicitly
// allow or prohibit (Fig 4).
type Activity string

// The activity classes of Fig 4.
const (
	ActNudityNSFW   Activity = "nudity-with-nsfw"
	ActPornNSFW     Activity = "porn-with-nsfw"
	ActSpoilersNoCW Activity = "spoilers-without-cw"
	ActAdvertising  Activity = "advertising"
	ActIllegalLinks Activity = "links-to-illegal-content"
	ActNudityNoNSFW Activity = "nudity-without-nsfw"
	ActPornNoNSFW   Activity = "porn-without-nsfw"
	ActSpam         Activity = "spam"
)

// Activities lists all activity classes in Fig 4's order.
var Activities = []Activity{
	ActNudityNSFW, ActPornNSFW, ActSpoilersNoCW, ActAdvertising,
	ActIllegalLinks, ActNudityNoNSFW, ActPornNoNSFW, ActSpam,
}

// Software identifies the server implementation; §3 observes 3.1% of
// instances running Pleroma, the rest Mastodon, federating over ActivityPub.
type Software string

// Server software values.
const (
	SoftwareMastodon Software = "mastodon"
	SoftwarePleroma  Software = "pleroma"
)

// Operator describes who runs an instance (the "Run by" column of Table 2).
type Operator string

// Operator kinds seen in Table 2.
const (
	OpIndividual  Operator = "individual"
	OpCompany     Operator = "company"
	OpCrowdFunded Operator = "crowd-funded"
	OpCollective  Operator = "collective"
	OpUnknown     Operator = "unknown"
)

// AS is an autonomous system in the synthetic hosting registry. Rank and
// Peers mirror the CAIDA columns of Table 1.
type AS struct {
	ASN     int
	Name    string
	Country string
	Rank    int
	Peers   int
}

// Instance is one Mastodon/Pleroma server. Counters (Users, Toots, Boosts)
// are end-of-measurement totals; time-varying state lives in the traces and
// in per-user join days.
type Instance struct {
	ID       int32
	Domain   string
	Software Software
	Country  string
	ASN      int
	IP       string
	CA       string // certificate authority (Fig 9a)

	Open        bool // open registrations vs invite-only (§4.1)
	Categorized bool // whether the instance self-declares categories (§4.2)
	Categories  []Category
	Allowed     []Activity
	Prohibited  []Activity
	Operator    Operator

	// Blocks lists instances this instance defederates from (§7 discusses
	// Mastodon's instance blocking as a moderation mechanism; the
	// ext-blocking experiment measures its graph impact).
	Blocks []int32

	CreatedDay int // day index (from EpochStart) the instance appeared
	GoneDay    int // day it permanently vanished; -1 = still alive at the end

	BlocksCrawl bool // refuses federated-timeline crawling (§3: 38% toot gap)

	Users  int   // registered local accounts
	Toots  int64 // public toots authored locally ("home" toots)
	Boosts int64 // boosts performed by local accounts

	// MaxWeeklyActivePct is the instance's activity level: the maximum over
	// weeks of the percentage of users who logged in that week (Fig 2c).
	MaxWeeklyActivePct float64

	// CertIssuedDay is the day the current certificate chain started; with a
	// 90-day Let's Encrypt policy, expiries fall every 90 days after it.
	CertIssuedDay int
}

// CertExpiryDays returns the days within [0, days) on which this instance's
// certificate expires under a renewEvery-day policy (90 for Let's Encrypt).
func (in *Instance) CertExpiryDays(days, renewEvery int) []int {
	var out []int
	for d := in.CertIssuedDay + renewEvery; d < days; d += renewEvery {
		out = append(out, d)
	}
	return out
}

// User is one account, local to exactly one instance (§3: accounts are
// per-instance; same-named accounts on different instances are distinct
// nodes).
type User struct {
	ID       int32
	Instance int32
	JoinDay  int
	Toots    int // public toots authored
	Boosts   int
	Private  bool // account's toots are not publicly crawlable (~20% of the gap)
}

// World is a complete synthetic (or crawled) fediverse snapshot: everything
// the paper's three datasets contain, in one place.
type World struct {
	Seed uint64
	Days int

	Instances []Instance
	Users     []User
	ASes      []AS

	// Social is the user follower graph G(V,E): edge u→v means u follows v.
	Social *graph.CSR
	// Federation is the instance federation graph GF(I,E) induced from
	// Social exactly as §3 defines it.
	Federation *graph.CSR

	// Traces holds one availability bitset per instance at 5-minute
	// resolution (the mnm.social probe record).
	Traces *sim.TraceSet

	// CertOutageDays[i] lists the outage-start days of instance i that were
	// caused by certificate expiry (ground truth for validating Fig 9b's
	// detector).
	CertOutageDays map[int32][]int

	// Provenance, when non-nil, records per-instance harvest outcomes for
	// crawled worlds (aligned with Instances; see CrawlProvenance). It is
	// in-memory crawl metadata, not part of the serialised world: Save
	// ignores it, which is also what keeps a partial-harvest world
	// byte-comparable with its fault-free twin.
	Provenance []CrawlProvenance
}

// NumSlots returns the total number of 5-minute probe slots in the
// measurement period.
func (w *World) NumSlots() int { return w.Days * SlotsPerDay }

// UserInstance returns the user→instance mapping as a group vector for
// graph.Induce.
func (w *World) UserInstance() []int32 {
	g := make([]int32, len(w.Users))
	for i := range w.Users {
		g[i] = w.Users[i].Instance
	}
	return g
}

// InstanceUsers returns, for every instance, the ids of its local users.
func (w *World) InstanceUsers() [][]int32 {
	out := make([][]int32, len(w.Instances))
	for i := range w.Users {
		in := w.Users[i].Instance
		out[in] = append(out[in], int32(i))
	}
	return out
}

// InstanceTootWeights returns per-instance home-toot counts as float64s
// (the ranking weight used throughout §5).
func (w *World) InstanceTootWeights() []float64 {
	ws := make([]float64, len(w.Instances))
	for i := range w.Instances {
		ws[i] = float64(w.Instances[i].Toots)
	}
	return ws
}

// InstanceUserWeights returns per-instance user counts as float64s.
func (w *World) InstanceUserWeights() []float64 {
	ws := make([]float64, len(w.Instances))
	for i := range w.Instances {
		ws[i] = float64(w.Instances[i].Users)
	}
	return ws
}

// ASInstances groups instance ids by ASN.
func (w *World) ASInstances() map[int][]int32 {
	m := make(map[int][]int32)
	for i := range w.Instances {
		m[w.Instances[i].ASN] = append(m[w.Instances[i].ASN], int32(i))
	}
	return m
}

// ASByNumber returns the AS registry entry for asn, or nil.
func (w *World) ASByNumber(asn int) *AS {
	for i := range w.ASes {
		if w.ASes[i].ASN == asn {
			return &w.ASes[i]
		}
	}
	return nil
}

// TotalToots returns the sum of home toots across instances.
func (w *World) TotalToots() int64 {
	var t int64
	for i := range w.Instances {
		t += w.Instances[i].Toots
	}
	return t
}

// TotalUsers returns the sum of registered users across instances.
func (w *World) TotalUsers() int {
	t := 0
	for i := range w.Instances {
		t += w.Instances[i].Users
	}
	return t
}

// Day returns the calendar time for a day index.
func Day(d int) time.Time { return EpochStart.AddDate(0, 0, d) }
