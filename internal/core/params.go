// Package core implements the daMulticast protocol engine: the
// membership tables (topic table, supertopic table), the
// FIND_SUPER_CONTACT bootstrap task (paper Fig. 4), the
// subscription/reception logic (Fig. 5), the link-maintenance task
// KEEP_TABLE_UPDATED (Fig. 6), and the dissemination algorithm
// (Fig. 7).
//
// The engine is transport-agnostic and clock-agnostic: a Process is a
// pure message-driven state machine driven through HandleMessage and
// Tick, with all outbound traffic funnelled through an Env. The
// round-based simulator (internal/sim) and the live Hub of the root
// damulticast package both drive this same engine, so the figures the
// simulator regenerates exercise exactly the code a deployment runs.
package core

import (
	"errors"
	"fmt"
)

// Params are the per-topic protocol constants of the paper. The
// symbols match §V and §VII-A.
type Params struct {
	// B sizes the topic table: (B+1)·ln(S) entries (substrate [10]).
	B float64
	// C is the gossip fanout constant: events are forwarded to
	// ln(S)+C random group members.
	C float64
	// G determines the self-election probability pSel = G/S with
	// which a process forwards an event toward its supergroup.
	G float64
	// A determines the per-superprocess send probability pA = A/Z.
	A float64
	// Z is the (constant) supertopic table size.
	Z int
	// Tau is the liveness threshold τ: when CHECK(sTable) ≤ Tau the
	// process requests fresh superprocess contacts (Fig. 6 line 18).
	Tau int

	// GroupSizeHint, when > 0, is used as S for pSel and the fanout.
	// When 0, S is estimated from the topic-table occupancy, inverting
	// the (B+1)·ln(S) sizing rule.
	GroupSizeHint int

	// SeenCap bounds the duplicate-suppression window.
	SeenCap int

	// MaxAge is the membership age (in ticks) beyond which a
	// topic-table entry is suspected failed and evicted. 0 disables
	// age-based eviction (the simulator's static-table mode).
	MaxAge int

	// ShufflePeriod is the number of ticks between membership
	// shuffles (0 disables shuffling — static tables).
	ShufflePeriod int

	// MaintainPeriod is the number of ticks between KEEP_TABLE_UPDATED
	// executions (0 disables link maintenance).
	MaintainPeriod int

	// PingTimeout is how many ticks a superprocess may stay silent
	// after a ping before CHECK counts it dead.
	PingTimeout int

	// FindSuperPeriod is the number of ticks FIND_SUPER_CONTACT waits
	// for an answer before widening its search scope by one level.
	FindSuperPeriod int

	// ReqContactTTL bounds the hop count of REQCONTACT forwarding
	// through the bootstrap neighborhood.
	ReqContactTTL int

	// NeighborhoodFanout is how many bootstrap neighbors each
	// REQCONTACT wave contacts.
	NeighborhoodFanout int

	// RecoverPeriod is the number of ticks between anti-entropy
	// recovery waves (digest gossip; see recover.go). 0 — the default —
	// disables recovery entirely: the protocol is then exactly the
	// paper's best-effort daMulticast, with no extra random draws.
	RecoverPeriod int

	// RecoverFanout is how many random group mates each recovery wave
	// sends a digest to.
	RecoverFanout int

	// RecoverStoreCap bounds the per-process recovery event store
	// (events, not bytes) — the memory ceiling of the subsystem,
	// analogous to SeenCap for the duplicate window.
	RecoverStoreCap int

	// RecoverMaxAge is the store age bound: events first seen more than
	// this many ticks ago are GC'd at the next wave and can no longer
	// be served to peers.
	RecoverMaxAge int

	// RecoverDigestBits is the recovery digest's bloom-filter budget in
	// bits per stored event (10 ≈ 1% false positives). Larger stores
	// build proportionally larger filters up to a hard byte cap; see
	// bloom.go. The sentinel DigestBitsAdaptive picks the budget from
	// the observed store count at digest-build time.
	RecoverDigestBits int

	// CrossRecoverPeriod is the number of ticks between cross-group
	// recovery waves: digests sent to known supergroup and subgroup
	// contacts, so repair climbs and descends the topic hierarchy
	// instead of staying inside one group. 0 (the default) keeps
	// recovery intra-group only. Requires RecoverPeriod > 0.
	CrossRecoverPeriod int

	// CrossRecoverFanout is how many contacts per direction (up the
	// supertopic table, down the learned subgroup contacts) each
	// cross-group wave sends a digest to.
	CrossRecoverFanout int
}

// DigestBitsAdaptive, assigned to Params.RecoverDigestBits, sizes each
// recovery digest from the observed store count when the filter is
// built instead of a fixed per-entry budget: small stores get generous
// filters (16 bits/entry, ~0.04% false positives — a false positive on
// a tiny store suppresses a large fraction of the repair), big stores
// taper to the paper-default 10 bits/entry before the byte cap bites.
// See adaptiveDigestBits in bloom.go for the schedule.
const DigestBitsAdaptive = -1

// DefaultParams returns the paper's simulation setting (§VII-A):
// b=3, c=5, g=5, a=1, z=3, plus sensible defaults for the live-mode
// knobs the paper leaves to the implementation.
func DefaultParams() Params {
	return Params{
		B:                  3,
		C:                  5,
		G:                  5,
		A:                  1,
		Z:                  3,
		Tau:                1,
		SeenCap:            8192,
		MaxAge:             10,
		ShufflePeriod:      1,
		MaintainPeriod:     2,
		PingTimeout:        2,
		FindSuperPeriod:    3,
		ReqContactTTL:      8,
		NeighborhoodFanout: 4,
		RecoverPeriod:      0, // recovery is opt-in
		RecoverFanout:      2,
		RecoverStoreCap:    512,
		RecoverMaxAge:      20,
		RecoverDigestBits:  10,
		CrossRecoverPeriod: 0, // cross-group recovery is opt-in on top
		CrossRecoverFanout: 2,
	}
}

// Validation errors.
var (
	ErrBadZ       = errors.New("core: Z must be >= 1")
	ErrBadA       = errors.New("core: A must be in [0, Z]")
	ErrBadG       = errors.New("core: G must be >= 0")
	ErrBadB       = errors.New("core: B must be >= 0")
	ErrBadTau     = errors.New("core: Tau must be in [0, Z]")
	ErrBadRecover = errors.New("core: recovery knobs must be positive when RecoverPeriod > 0")
	ErrBadCross   = errors.New("core: CrossRecoverPeriod requires RecoverPeriod > 0 and a positive CrossRecoverFanout")
)

// Validate checks the constraints stated in the paper: 1 ≤ a ≤ z,
// 1 ≤ g (we relax to 0 ≤ g to allow disabling upward links in
// ablations), 0 ≤ τ ≤ z.
func (p Params) Validate() error {
	if p.Z < 1 {
		return fmt.Errorf("%w (got %d)", ErrBadZ, p.Z)
	}
	if p.A < 0 || p.A > float64(p.Z) {
		return fmt.Errorf("%w (got %g with Z=%d)", ErrBadA, p.A, p.Z)
	}
	if p.G < 0 {
		return fmt.Errorf("%w (got %g)", ErrBadG, p.G)
	}
	if p.B < 0 {
		return fmt.Errorf("%w (got %g)", ErrBadB, p.B)
	}
	if p.Tau < 0 || p.Tau > p.Z {
		return fmt.Errorf("%w (got %d with Z=%d)", ErrBadTau, p.Tau, p.Z)
	}
	if p.RecoverPeriod > 0 && (p.RecoverFanout < 1 || p.RecoverStoreCap < 1 || p.RecoverMaxAge < 1 ||
		(p.RecoverDigestBits < 1 && p.RecoverDigestBits != DigestBitsAdaptive)) {
		return fmt.Errorf("%w (fanout=%d storecap=%d maxage=%d digestbits=%d)",
			ErrBadRecover, p.RecoverFanout, p.RecoverStoreCap, p.RecoverMaxAge, p.RecoverDigestBits)
	}
	if p.CrossRecoverPeriod > 0 && (p.RecoverPeriod < 1 || p.CrossRecoverFanout < 1) {
		return fmt.Errorf("%w (recover=%d crossfanout=%d)",
			ErrBadCross, p.RecoverPeriod, p.CrossRecoverFanout)
	}
	return nil
}

// withDefaults fills zero-valued live-mode knobs from DefaultParams so
// that callers may specify only the paper's five constants.
func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.SeenCap == 0 {
		p.SeenCap = d.SeenCap
	}
	if p.PingTimeout == 0 {
		p.PingTimeout = d.PingTimeout
	}
	if p.FindSuperPeriod == 0 {
		p.FindSuperPeriod = d.FindSuperPeriod
	}
	if p.ReqContactTTL == 0 {
		p.ReqContactTTL = d.ReqContactTTL
	}
	if p.NeighborhoodFanout == 0 {
		p.NeighborhoodFanout = d.NeighborhoodFanout
	}
	// RecoverPeriod deliberately keeps its zero value (recovery off);
	// only the dependent knobs default, so enabling recovery is a
	// one-field change.
	if p.RecoverFanout == 0 {
		p.RecoverFanout = d.RecoverFanout
	}
	if p.RecoverStoreCap == 0 {
		p.RecoverStoreCap = d.RecoverStoreCap
	}
	if p.RecoverMaxAge == 0 {
		p.RecoverMaxAge = d.RecoverMaxAge
	}
	if p.RecoverDigestBits == 0 {
		p.RecoverDigestBits = d.RecoverDigestBits
	}
	// CrossRecoverPeriod keeps its zero value too (cross-group recovery
	// off); only its fanout defaults.
	if p.CrossRecoverFanout == 0 {
		p.CrossRecoverFanout = d.CrossRecoverFanout
	}
	return p
}
