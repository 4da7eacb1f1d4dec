package sim

import (
	"encoding/binary"
	"fmt"
	"math"

	"damulticast/internal/core"
	"damulticast/internal/ids"
	"damulticast/internal/scenario"
	"damulticast/internal/topic"
	"damulticast/internal/wire"
)

// This file holds the two figures that size the bloom-digest redesign
// of the anti-entropy plane: "recoverystore" (digest frame bytes vs
// store size — the scaling argument for replacing raw id lists) and
// "recoverydepth" (root revival vs hierarchy depth — the coverage
// argument for cross-group waves).

// maxWireFrame mirrors TCPTransport's default MaxFrame: the budget a
// digest frame must fit to traverse the live transport in one piece.
const maxWireFrame = 1 << 20

// syntheticStoreIDs builds n event ids shaped like live traffic:
// origins are transport addresses ("host:port" strings, which double
// as process ids in live mode) drawn from a pool of publishers, each
// with a growing sequence number.
func syntheticStoreIDs(n int) []ids.EventID {
	const publishers = 500
	out := make([]ids.EventID, n)
	for i := range out {
		p := i % publishers
		out[i] = ids.EventID{
			Origin: ids.ProcessID(fmt.Sprintf("10.%d.%d.%d:36500", p/200, p/50%4, p%50)),
			Seq:    uint64(i / publishers),
		}
	}
	return out
}

// uvarintLen is the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}

// rawIDListBytes is the wire cost the retired v3 codec paid for the
// same store: an explicit id list (count, then per id the
// length-prefixed origin and the seq varint).
func rawIDListBytes(eventIDs []ids.EventID) int {
	total := uvarintLen(uint64(len(eventIDs)))
	for _, id := range eventIDs {
		total += uvarintLen(uint64(len(id.Origin))) + len(id.Origin) + uvarintLen(id.Seq)
	}
	return total
}

// bloomSectionBytes is the wire cost of the v4 bloom digest section
// (length-prefixed filter, probe count, seed).
func bloomSectionBytes(bits []byte, k int, seed uint64) int {
	return uvarintLen(uint64(len(bits))) + len(bits) + uvarintLen(uint64(k)) + uvarintLen(seed)
}

// recoveryStoreSpec is the digest scaling figure: x sweeps the
// recovery store size (events held) log-spaced from 1e3 to 1e5, and
// the series compare the encoded MsgDigest frame under the v4 bloom
// layout against what the retired raw-id layout would have cost, next
// to the transport's 1 MiB frame ceiling. No simulation runs — the
// point function builds a real digest over synthetic ids and encodes a
// real frame, so the bytes are the codec's, not a model's. The
// headline point (enforced by TestRecoveryStoreFigure): at 100k events
// the bloom digest fits one MaxFrame with room to spare while the
// raw-id digest provably cannot, which is why v3 capped digests at
// 4096 ids (silently dropping the rest) and v4 does not have to.
func recoveryStoreSpec() figureSpec {
	return figureSpec{
		name:   "recoverystore",
		xlabel: "events in the recovery store",
		ylabel: "digest frame bytes",
		grid: func(points int) []float64 {
			if points < 2 {
				return []float64{100000}
			}
			out := make([]float64, points)
			for i := range out {
				out[i] = math.Round(1000 * math.Pow(100, float64(i)/float64(points-1)))
			}
			return out
		},
		runPoint: func(x float64, seed int64, _ int) (pointResult, error) {
			n := int(x)
			eventIDs := syntheticStoreIDs(n)
			bitsPerEntry := core.DefaultParams().RecoverDigestBits
			bits, k, truncated := core.BloomDigest(eventIDs, bitsPerEntry, uint64(seed))
			m := &core.Message{
				Type: core.MsgDigest, From: "10.0.0.1:36500",
				FromTopic: ".t1.t2", Dest: ".t1.t2", TTL: 1,
				BloomBits: bits, BloomK: k, BloomSeed: uint64(seed),
			}
			frame := wire.AppendMessage(nil, m)
			bloomFrame := len(frame)
			// The v3 frame is the same envelope with the bloom section
			// swapped for the raw id list.
			rawFrame := bloomFrame - bloomSectionBytes(bits, k, uint64(seed)) + rawIDListBytes(eventIDs)
			var trunc int64
			if truncated {
				trunc = 1
			}
			return pointResult{
				values: map[string]float64{
					"bloom_frame": float64(bloomFrame),
					"rawid_frame": float64(rawFrame),
					"max_frame":   float64(maxWireFrame),
				},
				counts: map[string]int64{"truncated_digests": trunc},
			}, nil
		},
	}
}

// recoveryDepthRounds pins the depth figure's schedule: the root is
// isolated before a round-0 publication at the bottom of the chain,
// the partition heals halfway, and the remaining rounds give the
// cross-group plane a dozen waves to climb the healed boundary.
const recoveryDepthRounds = 48

// recoveryDepthRun builds a linear topic chain of the given depth
// (root + depth groups), isolates the root before the publication,
// heals halfway, and reports how much of the root group the recovery
// plane revived.
func recoveryDepthRun(depth int, seed int64, kernelWorkers int, cross bool) (*Result, error) {
	chain, err := topic.Chain(depth, "t")
	if err != nil {
		return nil, err
	}
	groups := []GroupSpec{{Topic: topic.Root, Size: 10}}
	for i, t := range chain {
		size := 30
		if i == len(chain)-1 {
			size = 60 // the publish group at the bottom, biggest as in the paper
		}
		groups = append(groups, GroupSpec{Topic: t, Size: size})
	}
	params := core.DefaultParams()
	params.ShufflePeriod = 0
	params.MaintainPeriod = 0
	params.RecoverPeriod = recoveryPeriod
	params.RecoverMaxAge = recoveryDepthRounds + 1
	if cross {
		params.CrossRecoverPeriod = recoveryPeriod
	}
	cfg := Config{
		Groups:        groups,
		Params:        params,
		PSucc:         1, // lossless: isolates the partition effect
		AliveFraction: 1,
		FailureMode:   FailNone,
		PublishTopic:  chain[len(chain)-1],
		Publications:  1,
		MaxRounds:     recoveryDepthRounds,
		Seed:          seed,
		Workers:       kernelWorkers,
	}
	sc := Scenario{
		Name:   "recovery-depth",
		Rounds: recoveryDepthRounds,
		Events: []scenario.Event{
			{Round: 0, Kind: scenario.Isolate, Topic: topic.Root},
			{Round: 0, Kind: scenario.Publish},
			{Round: recoveryDepthRounds / 2, Kind: scenario.Heal},
		},
	}
	return RunScenario(cfg, sc)
}

// recoveryDepthSpec is the hierarchy coverage figure: x is the topic
// chain depth (1 = root plus one subgroup), and the series compare
// root-group delivery with intra-group-only recovery ("root_intra",
// structurally 0: by heal time gossip has quiesced and no root member
// holds a copy to exchange) against cross-group recovery
// ("root_cross", revived through the bottom-up digest waves at every
// depth). TestRecoveryDepthFigure pins both at seeds.
func recoveryDepthSpec() figureSpec {
	return figureSpec{
		name:   "recoverydepth",
		xlabel: "topic hierarchy depth",
		ylabel: "fraction of root processes receiving",
		grid: func(points int) []float64 {
			if points < 1 {
				points = 1
			}
			out := make([]float64, points)
			for i := range out {
				out[i] = float64(i + 1)
			}
			return out
		},
		runPoint: func(x float64, seed int64, kernelWorkers int) (pointResult, error) {
			depth := int(x)
			intra, err := recoveryDepthRun(depth, seed, kernelWorkers, false)
			if err != nil {
				return pointResult{}, err
			}
			cross, err := recoveryDepthRun(depth, seed, kernelWorkers, true)
			if err != nil {
				return pointResult{}, err
			}
			counts := make(map[string]int64, 2*len(cross.KindTotals))
			for k, v := range intra.KindTotals {
				counts["root_intra:"+k] += v
			}
			for k, v := range cross.KindTotals {
				counts["root_cross:"+k] += v
			}
			return pointResult{
				values: map[string]float64{
					"root_intra": intra.ReliabilityAll[topic.Root],
					"root_cross": cross.ReliabilityAll[topic.Root],
				},
				counts: counts,
				rounds: intra.Rounds + cross.Rounds,
			}, nil
		},
	}
}
