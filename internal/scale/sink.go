package scale

import (
	"damulticast/internal/metrics"
	"damulticast/internal/topic"
)

// Sink streams the kernel's per-round counts into a metrics.Registry.
// The full simulation stack retains counters per process and harvests
// them at collection time; at a million processes that retention is
// exactly the memory the scale kernel exists to avoid. Instead the
// kernel accumulates four flat per-group counters (intra sends, inter
// sends, first-time deliveries, channel drops) during the round, and
// FlushRound folds them into the registry at the round boundary,
// zeroing them for the next round. Registry totals are sums of
// per-round sums, so the streamed result equals the retained one while
// the sink's footprint stays O(groups).
type Sink struct {
	topics  []topic.Topic // group index -> topic
	superOf []topic.Topic // group index -> supergroup topic ("" at the root)

	// The round's counters, indexed by group.
	intra, inter, delivered, dropped []int64
}

// NewSink sizes a sink for the store's groups.
func NewSink(st *Store) *Sink {
	ng := st.Groups()
	s := &Sink{
		topics:    make([]topic.Topic, ng),
		superOf:   make([]topic.Topic, ng),
		intra:     make([]int64, ng),
		inter:     make([]int64, ng),
		delivered: make([]int64, ng),
		dropped:   make([]int64, ng),
	}
	for gi := 0; gi < ng; gi++ {
		s.topics[gi] = st.GroupTopic(gi)
		if sg := st.groups[gi].super; sg >= 0 {
			s.superOf[gi] = st.GroupTopic(int(sg))
		}
	}
	return s
}

// FlushRound folds the round's counters into reg and zeroes them. The
// fold order (groups ascending, kinds fixed) is canonical.
func (s *Sink) FlushRound(reg *metrics.Registry) {
	for gi, t := range s.topics {
		if n := s.intra[gi]; n > 0 {
			reg.AddIntra(t, n)
		}
		if n := s.inter[gi]; n > 0 {
			reg.AddInter(t, s.superOf[gi], n)
		}
		if n := s.delivered[gi]; n > 0 {
			reg.AddDelivered(t, n)
		}
		if n := s.dropped[gi]; n > 0 {
			reg.AddDropped(t, n)
		}
	}
	clear(s.intra)
	clear(s.inter)
	clear(s.delivered)
	clear(s.dropped)
}
