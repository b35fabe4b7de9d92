package efsm_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/efsm"
	"repro/internal/estelle/sema"
	"repro/internal/estelle/types"
	"repro/internal/experiments"
	"repro/internal/vm"
	"repro/specs"
)

// TestWhenInputMatchesScan checks the discriminant index against a scan of
// When on every (state, IP, interaction) bucket of the bundled specs and of
// LAPD inflated to 200 and 800 keyed pads.
func TestWhenInputMatchesScan(t *testing.T) {
	srcs := specs.All()
	for _, n := range []int{200, 800} {
		src, err := experiments.InflateLAPD(n)
		if err != nil {
			t.Fatal(err)
		}
		srcs[fmt.Sprintf("lapd+%d", n)] = src
	}
	for name, src := range srcs {
		spec, err := efsm.Compile(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := checkWhenInput(t, spec); n == 0 {
			t.Errorf("%s: no parameter vector checked", name)
		}
	}
}

// checkWhenInput compares WhenInput with the scan it replaces on every
// (state, IP, interaction) bucket of spec, for parameter vectors built from
// the bucket's own constants: each constant, a value that matches none,
// undefined, and too few parameters. WhenInput must list the scan's
// transitions in order, minus exactly those whose discriminant refutes the
// guard. It returns the number of vectors checked.
func checkWhenInput(t testing.TB, spec *efsm.Spec) int {
	t.Helper()
	sentinel := &sema.TransInfo{Name: "sentinel"}
	checked := 0
	for st := 0; st < spec.NumStates(); st++ {
		for ip := 0; ip < spec.NumIPs(); ip++ {
			inters := spec.Prog.IPs[ip].Group.Channel.Interactions
			names := make([]string, 0, len(inters))
			for n := range inters {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				inter := inters[n]
				var scan []*sema.TransInfo
				for _, ti := range spec.When(st, ip) {
					if ti.WhenInter == inter {
						scan = append(scan, ti)
					}
				}
				for _, params := range bucketVectors(spec, inter, scan) {
					var want []*sema.TransInfo
					for _, ti := range scan {
						if !refuted(spec, ti, params) {
							want = append(want, ti)
						}
					}
					got := spec.WhenInput([]*sema.TransInfo{sentinel}, st, ip, inter, params)
					if got[0] != sentinel || !slices.Equal(got[1:], want) {
						t.Fatalf("state %s, ip %s, %s%v: WhenInput = %v, want %v",
							spec.StateName(st), spec.IPName(ip), inter.Name, params, transNames(got), transNames(want))
					}
					checked++
				}
			}
		}
	}
	return checked
}

// refuted reports whether ti's discriminant makes its guard false on
// params: the keyed parameter is bound, defined and not the constant.
func refuted(spec *efsm.Spec, ti *sema.TransInfo, params []vm.Value) bool {
	d, ok := spec.Code.Discriminant(ti)
	return ok && d.Param < len(params) && !params[d.Param].Undef && params[d.Param].I != d.Value
}

// bucketVectors builds the parameter vectors for one bucket. Each
// parameter takes in turn every constant it is keyed on, a value no
// transition is keyed on, and undefined, while the others all take their
// matching-none value or all are undefined; every vector's proper
// prefixes are there too.
func bucketVectors(spec *efsm.Spec, inter *sema.Interaction, bucket []*sema.TransInfo) [][]vm.Value {
	n := len(inter.Params)
	consts := make([][]int64, n)
	for _, ti := range bucket {
		if d, ok := spec.Code.Discriminant(ti); ok {
			consts[d.Param] = append(consts[d.Param], d.Value)
		}
	}
	none := make([]vm.Value, n)
	undef := make([]vm.Value, n)
	for i, p := range inter.Params {
		none[i] = noneOf(p.Type, consts[i])
		undef[i] = vm.UndefValue(p.Type)
	}
	vectors := [][]vm.Value{none, undef}
	for i, p := range inter.Params {
		choices := []vm.Value{none[i], undef[i]}
		for _, c := range consts[i] {
			choices = append(choices, vm.MakeOrdinal(p.Type, c))
		}
		for _, c := range choices {
			for _, rest := range [][]vm.Value{none, undef} {
				v := slices.Clone(rest)
				v[i] = c
				vectors = append(vectors, v)
			}
		}
	}
	for _, v := range vectors {
		for k := 0; k < n; k++ {
			vectors = append(vectors, v[:k])
		}
	}
	return vectors
}

// noneOf returns a defined value of t that is none of consts, or t's zero
// when t is not ordinal or has no such value next to the constants.
func noneOf(t *types.Type, consts []int64) vm.Value {
	if !t.IsOrdinal() || len(consts) == 0 {
		return vm.Zero(t, false)
	}
	lo, hi := t.OrdinalRange()
	if v := slices.Max(consts) + 1; v <= hi {
		return vm.MakeOrdinal(t, v)
	}
	if v := slices.Min(consts) - 1; v >= lo {
		return vm.MakeOrdinal(t, v)
	}
	return vm.Zero(t, false)
}

func transNames(tis []*sema.TransInfo) []string {
	out := make([]string, len(tis))
	for i, ti := range tis {
		out[i] = ti.Name
	}
	return out
}
