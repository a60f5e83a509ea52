package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"acr"
)

// maxFailures bounds the failure reasons a report lists.
const maxFailures = 8

// checker holds the output check, run after the timed window: a cold
// acr.Verify of every repair's configurations against its claims.
type checker struct {
	cases []*acr.Case
	base  map[int]int // cold failing-intent count of each incident's input

	// Over the first passes (the repairs the digest covers): how many were
	// checked, repaired (feasible and cold-verified) and improved (the
	// cold failing count strictly below the input's).
	checked, repaired, improved int
	// failed counts failed operations; contradictions counts the subset
	// where the cold check disagrees with the repair's own claims.
	failed, contradictions int
	failures               []string
	digests                []keyedDigest
	// verified records outputs already checked, by incident and canonical
	// digest: a byte-identical result makes byte-identical claims about the
	// same configurations, so it needs no second cold verification.
	verified map[keyedDigest]bool
}

type keyedDigest struct {
	pass, inc int
	sha       string
}

func newChecker(cases []*acr.Case) *checker {
	return &checker{cases: cases, base: map[int]int{}, verified: map[keyedDigest]bool{}}
}

// coldFailing verifies configs against incident inc's topology and intents
// from scratch.
func (c *checker) coldFailing(inc int, configs map[string]*acr.Config) int {
	cs := c.cases[inc]
	return acr.Verify(&acr.Case{Topo: cs.Topo, Configs: configs, Intents: cs.Intents}).NumFailed()
}

func (c *checker) baseFailing(inc int) int {
	n, ok := c.base[inc]
	if !ok {
		n = c.coldFailing(inc, c.cases[inc].Configs)
		c.base[inc] = n
	}
	return n
}

func (c *checker) fail(a *attempt, contradiction bool, format string, args ...any) {
	c.failed++
	if contradiction {
		c.contradictions++
	}
	if len(c.failures) < maxFailures {
		c.failures = append(c.failures, fmt.Sprintf("pass %d incident %d: ", a.pass, a.inc)+fmt.Sprintf(format, args...))
	}
}

// outcomeProblem names what makes a finished repair a failed operation.
func outcomeProblem(termination string, panicked, timedOut int) string {
	switch termination {
	case "feasible", "exhausted", "iteration-cap":
	default:
		return "termination " + termination
	}
	if panicked > 0 || timedOut > 0 {
		return fmt.Sprintf("%d candidates panicked, %d timed out", panicked, timedOut)
	}
	return ""
}

// library checks one acr.Repair attempt.
func (c *checker) library(a *attempt, minPasses int) {
	if a.err != nil {
		c.fail(a, false, "%v", a.err)
		return
	}
	r := a.res
	if p := outcomeProblem(r.Termination, r.CandidatesPanicked, r.CandidatesTimedOut); p != "" {
		c.fail(a, false, "%s", p)
		return
	}
	configs, claimed := r.BestEffortConfigs, r.BestEffortFitness
	if r.Feasible {
		configs, claimed = r.FinalConfigs, 0
	}
	c.judge(a, minPasses, r.BaseFailing, r.Feasible, r.Improved, configs, claimed, canonicalDigest(r))
}

// judge compares a repair's claims with a cold verification of the
// configurations it returned and tallies the outcome.
func (c *checker) judge(a *attempt, minPasses, claimedBase int, feasible, claimedImproved bool,
	configs map[string]*acr.Config, claimedFitness int, sha string) {
	base := c.baseFailing(a.inc)
	key := keyedDigest{inc: a.inc, sha: sha}
	if !c.verified[key] {
		if claimedBase != base {
			c.fail(a, true, "base failing %d, cold check says %d", claimedBase, base)
			return
		}
		n := c.coldFailing(a.inc, configs)
		if n != claimedFitness {
			c.fail(a, true, "claims %d failing intents, cold check says %d", claimedFitness, n)
			return
		}
		if claimedImproved != (n < base) {
			c.fail(a, true, "claims improved=%v, cold check says %d -> %d", claimedImproved, base, n)
			return
		}
		c.verified[key] = true
	}
	if a.pass >= minPasses {
		return
	}
	c.checked++
	if feasible {
		c.repaired++
	}
	if claimedFitness < base {
		c.improved++
	}
	c.digests = append(c.digests, keyedDigest{a.pass, a.inc, sha})
}

// digest hashes the checked repairs' canonical digests in (pass, incident)
// order, so it does not depend on completion order.
func (c *checker) digest() string {
	ds := append([]keyedDigest(nil), c.digests...)
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].pass != ds[j].pass {
			return ds[i].pass < ds[j].pass
		}
		return ds[i].inc < ds[j].inc
	})
	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintf(h, "%d %d %s\n", d.pass, d.inc, d.sha)
	}
	return hex.EncodeToString(h.Sum(nil))
}
