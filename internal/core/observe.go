package core

import (
	"kset/internal/rounds"
	"kset/internal/stats"
)

// Observe emits the flat results-plane record of one finished run: the
// execution facts a rounds.Result carries (latest decision round,
// messages delivered, crashes, deciders), ready for a stats.Collector.
// The campaign layer fills in what the engine cannot know — condition
// membership, the verdict, executor and label — before folding the
// observation into its collectors. Observe reads the Result without
// retaining it, so it composes with recycled Results.
func Observe(res *rounds.Result) stats.Observation {
	return stats.Observation{
		Round:      res.MaxDecisionRound(),
		Messages:   res.MessagesDelivered,
		Crashes:    len(res.Crashed),
		Decided:    len(res.Decisions),
		Lost:       res.Lost,
		Delayed:    res.Delayed,
		Duplicated: res.Duplicated,
	}
}
