// Package queries implements the six Yahoo-Streaming-Benchmark-style
// queries of the paper's evaluation (section 6, Figure 4), each in
// two variants:
//
//   - Generated: a typed transduction DAG built from the operator
//     templates of package core and compiled onto the storm runtime
//     by package compile (the paper's orange line);
//   - Handcrafted: a hand-written storm topology using raw
//     connections, in which every bolt does its own marker
//     synchronization and block buffering, the way careful
//     hand-tuned Storm code does (the paper's blue line).
//
// The two variants of each query are semantically equivalent — the
// package tests verify trace equivalence on random workloads — and
// their throughput is compared by the Figure 4 benchmarks.
package queries

import (
	"fmt"
	"time"

	"datatrace/internal/db"
	"datatrace/internal/workload"
)

// Env bundles the shared substrate of all queries: the generated
// workload and the reference database (the paper's Apache Derby).
type Env struct {
	// Cfg is the workload configuration.
	Cfg workload.YahooConfig
	// Gen is the event generator.
	Gen *workload.Yahoo
	// DB holds the ads and users lookup tables, plus tables queries
	// persist into.
	DB *db.DB
	// Ads and Users are the preloaded lookup tables.
	Ads, Users *db.Table
}

// NewEnv generates the reference tables and applies the given
// per-operation database delay (0 keeps lookups at in-memory speed;
// the Figure 4 benchmarks use a small delay to model the paper's
// out-of-process Derby).
func NewEnv(cfg workload.YahooConfig, opDelay time.Duration) (*Env, error) {
	gen, err := workload.NewYahoo(cfg)
	if err != nil {
		return nil, err
	}
	d := db.New()
	if err := gen.SetupDB(d); err != nil {
		return nil, err
	}
	// Query II persists per-user counts; Query III could persist
	// per-location summaries. Created up front so variants share the
	// schema.
	if _, err := d.CreateTable("user_counts", []db.Column{
		{Name: "user_id", Type: db.Int},
		{Name: "count", Type: db.Int},
	}, "user_id"); err != nil {
		return nil, err
	}
	d.SetOpDelay(opDelay)
	return &Env{
		Cfg:   cfg,
		Gen:   gen,
		DB:    d,
		Ads:   d.MustTable("ads"),
		Users: d.MustTable("users"),
	}, nil
}

// CampaignOf performs the enrichment lookup all campaign-keyed
// queries share: ad id → campaign id via the ads table.
func (e *Env) CampaignOf(adID int64) int64 {
	v, ok := e.Ads.GetIntVal(adID, 1)
	if !ok {
		panic(fmt.Sprintf("queries: ad %d missing from ads table", adID))
	}
	return v.(int64)
}

// LocationOf performs the user → location lookup of Queries III/VI.
func (e *Env) LocationOf(userID int64) int64 {
	v, ok := e.Users.GetIntVal(userID, 1)
	if !ok {
		panic(fmt.Sprintf("queries: user %d missing from users table", userID))
	}
	return v.(int64)
}

// Enriched is a Yahoo event joined with its campaign (Query I).
type Enriched struct {
	Ev       workload.YahooEvent
	Campaign int64
}

// Located is a Yahoo event joined with its user's location (Queries
// III and VI).
type Located struct {
	Ev       workload.YahooEvent
	Location int64
}

// Features is the per-user feature aggregate of Query VI: interaction
// counts by type plus the user's (static) location, carried through
// the aggregation monoid.
type Features struct {
	Views, Clicks, Purchases float64
	// Location is the user's location; -1 in the monoid identity.
	Location int64
}

// CombineFeatures is the commutative monoid operation on Features.
func CombineFeatures(x, y Features) Features {
	loc := x.Location
	if loc < 0 {
		loc = y.Location
	}
	return Features{
		Views:     x.Views + y.Views,
		Clicks:    x.Clicks + y.Clicks,
		Purchases: x.Purchases + y.Purchases,
		Location:  loc,
	}
}

// FeaturesID is the monoid identity.
func FeaturesID() Features { return Features{Location: -1} }

// UserFeatures is one user's cumulative feature vector, the points
// Query VI clusters per location.
type UserFeatures struct {
	User int64
	F    Features
}

// ClusterSummary is Query VI's periodic per-location output: a
// k-means run over the location's user vectors.
type ClusterSummary struct {
	K       int
	Size    int
	Inertia float64
}

// SlidingState is the window state of Query IV: per-campaign counts
// of the last SlidingWindowBlocks blocks, as a ring — Next is the slot
// the next block overwrites, and a slot no block has reached yet
// counts 0. It is a value without pointers, so UpdateState is a pure
// function of it and a snapshot writes it as its memory.
type SlidingState struct {
	Blocks [SlidingWindowBlocks]int64
	Next   int
}

// TumblingState is the window state of Query V.
type TumblingState struct {
	Acc        int64
	BlockCount int
	LastWindow int64
	Ready      bool
}
