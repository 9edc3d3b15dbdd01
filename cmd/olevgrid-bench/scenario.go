package main

// The scenario gate runs every registered city archetype (or one named
// scenario, or a scenario .json file) and scores its outcome against
// the expected-outcome envelope the archetype declares: welfare band,
// rounds ceiling, congestion within η on live sections, payment
// nonnegativity, convergence, and — where declared — the coupled
// day's welfare within its bound of the fault-stripped clean twin.
// CI runs it under -race: if a solver or pricing change moves a named
// workload out of its promised envelope, the verdict says which
// scenario and which promise.
//
//	olevgrid-bench scenario [-scenario name|file.json] [-o SCENARIO_conformance.json] [-check]

import (
	"flag"
	"fmt"

	"olevgrid"
)

// scenarioReport has one row per archetype.
type scenarioReport struct {
	Header
	Scenarios []olevgrid.ScenarioConformance `json:"scenarios"`
	Verdict
}

func scenarioGate(fs *flag.FlagSet) func() (report, error) {
	scenarioRef := fs.String("scenario", "", "check one named archetype or scenario .json file (default: every registered archetype)")
	return func() (report, error) { return runScenario(*scenarioRef) }
}

func runScenario(scenarioRef string) (*scenarioReport, error) {
	var specs []olevgrid.ScenarioSpec
	if scenarioRef != "" {
		s, err := olevgrid.LoadScenario(scenarioRef)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	} else {
		for _, name := range olevgrid.ScenarioNames() {
			s, _ := olevgrid.GetScenario(name)
			specs = append(specs, s)
		}
	}

	rep := &scenarioReport{}
	for _, s := range specs {
		c, err := olevgrid.ConformScenario(s)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		rep.Scenarios = append(rep.Scenarios, c)
		e := s.Expect
		rep.expect(c.GateWelfareBand, "%s: welfare %.2f outside [%g, %g]", c.Name, c.Welfare, e.MinWelfare, e.MaxWelfare)
		rep.expect(c.GateRounds, "%s: rounds %d > %d", c.Name, c.Rounds, e.MaxRounds)
		rep.expect(c.GateCongestion, "%s: congestion %.3f (max live section load ratio %.3f) beyond η·P_line plus the envelope's overload slack",
			c.Name, c.CongestionDegree, c.MaxSectionLoadRatio)
		rep.expect(c.GatePayments, "%s: payments negative (total %.4f per hour, min player %.3g kW), want ≥ 0",
			c.Name, c.TotalPaymentPerHour, c.MinPlayerKW)
		rep.expect(c.GateConverged, "%s: not converged in %d rounds", c.Name, c.Rounds)
		rep.expect(c.GateVsClean, "%s: day welfare drop vs clean %.4f > %g", c.Name, c.WelfareDropVsClean, e.MaxWelfareDropVsClean)
	}
	return rep, nil
}
