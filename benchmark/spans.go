package main

// spanMetrics derives the span.* metrics of a traced pass.
//
// A span's self time is its duration minus the part its children
// cover. span.self_sum_ratio sums the median self time of every span
// under the producer's "step" span and divides by the median step
// period: close to 1 means the spans account for the step.
// span.solver_share is the share of producer step time spent in the
// solver;
// span.transport_share is the share of the leaf-side step period the
// leaf spends receiving — waiting on and ingesting what the mesh
// delivers — rather than analyzing.
func spanMetrics(p *pass, into map[string]float64) {
	type key struct {
		rank int
		ord  int64
	}
	groups := map[key][]span{}
	for _, s := range p.spans {
		k := key{s.Rank, s.Ordinal}
		groups[k] = append(groups[k], s)
	}
	self := map[string][]float64{} // span name -> self ms per step, under "step" only
	var periods []float64
	var stepTotal, solverTotal, leafTotal, receiveTotal float64
	for _, g := range groups {
		byName := map[string]span{}
		for _, s := range g {
			byName[s.Name] = s
		}
		for _, s := range g {
			dur := float64(s.EndNs-s.StartNs) / 1e6
			switch s.Name {
			case "receive":
				receiveTotal += dur
				leafTotal += dur
			case "analyze":
				if s.Parent == "" {
					leafTotal += dur
				}
			}
			// Only spans rooted at the producer's step span take part in
			// the self-time sum.
			root := s
			for root.Parent != "" {
				parent, ok := byName[root.Parent]
				if !ok {
					break
				}
				root = parent
			}
			if root.Name != "step" {
				continue
			}
			cover := 0.0
			for _, c := range g {
				if c.Parent == s.Name {
					cover += float64(c.EndNs-c.StartNs) / 1e6
				}
			}
			self[s.Name] = append(self[s.Name], dur-cover)
			switch s.Name {
			case "step":
				periods = append(periods, dur)
				stepTotal += dur
			case "solve":
				solverTotal += dur
			}
		}
	}
	var sum float64
	for _, v := range self {
		sum += median(v)
	}
	if m := median(periods); m > 0 {
		into["span.self_sum_ratio"] = sum / m
	}
	if stepTotal > 0 {
		into["span.solver_share"] = solverTotal / stepTotal
	}
	if leafTotal > 0 {
		into["span.transport_share"] = receiveTotal / leafTotal
	}
}
