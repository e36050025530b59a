package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"dcasim/internal/exp"
	"dcasim/internal/sim"
)

const (
	// goldenPath is the repo's pinned figure render at goldenSeed.
	goldenPath = "testdata/golden_figures.txt"
	goldenSeed = 1
	// referencePath holds digests recorded at the benchmark's seed
	// commit: the figure render and the timed_long Result per seed.
	referencePath = "dcabench/reference.json"
	// referenceSeeds is how many seeds, from 0, -write-reference records.
	referenceSeeds = 64
)

// reference maps a seed (decimal) to the SHA-256 digest of the expected
// output.
type reference struct {
	Figures   map[string]string `json:"figures"`
	TimedLong map[string]string `json:"timed_long"`
}

func loadReference(path string) (reference, error) {
	var ref reference
	data, err := os.ReadFile(path)
	if err != nil {
		return ref, err
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		return ref, fmt.Errorf("%s: %w", path, err)
	}
	return ref, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// expectation is what one seed's output must equal. An output is
// compared with the golden bytes when the seed has them, else with the
// recorded digest when the seed has one, else with the first output of
// the run (which then pins every later one).
type expectation struct {
	exact  string // golden bytes; "" if none
	digest string // expected digest; "" until known
}

// figureExpectation returns the expected figure render of a seed.
func figureExpectation(seed uint64, ref reference) (expectation, error) {
	e := expectation{digest: ref.Figures[strconv.FormatUint(seed, 10)]}
	if seed == goldenSeed {
		golden, err := os.ReadFile(goldenPath)
		if err != nil {
			return e, err
		}
		e.exact = string(golden)
	}
	return e, nil
}

// check compares an output with the expectation, adopting its digest as
// the expectation when none is known yet.
func (e *expectation) check(out []byte) error {
	if e.exact != "" && string(out) != e.exact {
		return fmt.Errorf("output differs from %s", goldenPath)
	}
	d := digest(out)
	if e.digest == "" {
		e.digest = d
	}
	if d != e.digest {
		return fmt.Errorf("output digest %.12s… differs from expected %.12s…", d, e.digest)
	}
	return nil
}

// checkResult compares a timed_long Result with the expectation, by the
// digest of its JSON form: encoding/json writes floats in their shortest
// exact form, so equal digests mean equal results.
func (e *expectation) checkResult(res sim.Result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return e.check(b)
}

// writeReference records the digests of every seed below referenceSeeds.
func writeReference(path string) error {
	ref := reference{Figures: map[string]string{}, TimedLong: map[string]string{}}
	for seed := uint64(0); seed < referenceSeeds; seed++ {
		r := exp.NewRunner(figureBase(seed), figureMixes(), benchWorkers())
		out, err := renderFigures(r, nil)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		key := strconv.FormatUint(seed, 10)
		ref.Figures[key] = digest([]byte(out))
		res, err := sim.Run(timedLongConfig(seed))
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		ref.TimedLong[key] = digest(b)
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
