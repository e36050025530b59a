package main

import (
	"fmt"
	"strings"

	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/exp"
	"dcasim/internal/stats"
	"dcasim/internal/workload"
)

// figureNames is the render set of golden_figures_test.go, in its order:
// Tables I–II, Figs. 8–19 and the three extension studies.
var figureNames = []string{
	"tableI", "tableII",
	"fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
	"fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
	"twtr", "sched", "bear",
}

// figureMixes are the mixes the golden render covers: the first two of
// Table I.
func figureMixes() []workload.Mix { return workload.TableI()[:2] }

// figureBase is the base config of the figure workloads: the test preset
// with the workload seed.
func figureBase(seed uint64) config.Config {
	c := config.Test()
	c.Seed = seed
	return c
}

// renderFigures renders the figure set through r in the byte format of
// testdata/golden_figures.txt. With a tracer it records one span per
// figure and a child span around each table's text rendering.
func renderFigures(r *exp.Runner, tr *tracer) (string, error) {
	var b strings.Builder
	for _, name := range figureNames {
		fig := tr.begin("exp.figure."+name, 0)
		var tbl *stats.Table
		var err error
		switch name {
		case "tableI":
			tbl = exp.TableI(r.Mixes())
		case "tableII":
			tbl = r.TableII()
		default:
			tbl, err = r.Figure(name)
		}
		if err != nil {
			return "", fmt.Errorf("%s: %w", name, err)
		}
		render := tr.begin("stats.render", fig)
		text := tbl.String()
		tr.end(render)
		tr.end(fig)
		fmt.Fprintf(&b, "== %s ==\n%s\n", name, text)
	}
	return b.String(), nil
}

// figureConfigs lists the distinct simulations the figure set requests,
// in first-request order. It follows the enumeration of exp.Runner.Table
// (cells, normalization baselines, then the alone runs behind weighted
// speedups) from the public table specs; the figure workloads' set-up
// checks the list against the runner's own count of executed runs, so a
// drift in either shows as a failed set-up rather than a wrong metric.
func figureConfigs(base config.Config, mixes []workload.Mix) ([]config.Config, error) {
	var out []config.Config
	seen := map[string]bool{}
	add := func(c config.Config) {
		if h := c.Hash(); !seen[h] {
			seen[h] = true
			out = append(out, c)
		}
	}
	perMix := func(c config.Config, m workload.Mix) config.Config {
		c.Benchmarks = append([]string(nil), m.Benchmarks[:]...)
		c.Seed = base.Seed + uint64(m.ID)*1_000_003
		return c
	}
	for _, spec := range exp.Figures {
		if !isFigure(spec.Name) {
			continue
		}
		if spec.Replicates > 1 {
			return nil, fmt.Errorf("figure %s: replicated specs are not enumerated", spec.Name)
		}
		var aloneOrgs []config.Config
		for _, row := range spec.Rows {
			for _, col := range spec.Cols {
				if col.Div != nil {
					continue
				}
				cfg, err := base.Patch(spec.Patch, row.Patch, col.Patch)
				if err != nil {
					return nil, fmt.Errorf("figure %s: %w", spec.Name, err)
				}
				var bl config.Config
				if col.Baseline != nil {
					if bl, err = base.Patch(spec.Patch, row.Patch, col.Patch, col.Baseline); err != nil {
						return nil, fmt.Errorf("figure %s baseline: %w", spec.Name, err)
					}
				}
				for _, m := range mixes {
					add(perMix(cfg, m))
					if col.Baseline != nil {
						add(perMix(bl, m))
					}
				}
				if col.Metric == exp.MetricWS {
					aloneOrgs = append(aloneOrgs, cfg)
					if col.Baseline != nil {
						aloneOrgs = append(aloneOrgs, bl)
					}
				}
			}
		}
		for _, oc := range aloneOrgs {
			for _, m := range mixes {
				for _, bench := range m.Benchmarks {
					c := base
					c.Org = oc.Org
					c.Benchmarks = []string{bench}
					c.Design = core.CD
					c.Ctrl = nil
					add(c)
				}
			}
		}
	}
	return out, nil
}

func isFigure(name string) bool {
	for _, n := range figureNames {
		if n == name {
			return true
		}
	}
	return false
}
