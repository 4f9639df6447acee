package topology

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Parse resolves a topology name: "abilene", "sprint" (SprintEurope),
// or "synthetic:<pops>:<edges>:<seed>", the arguments of Synthetic. It
// is the one grammar every command's -topology flag speaks, so a name
// means the same network wherever it is given. A synthetic spec Synthetic
// would reject returns an error instead of panicking.
func Parse(name string) (*Topology, error) {
	switch name {
	case "abilene":
		return Abilene(), nil
	case "sprint":
		return SprintEurope(), nil
	}
	spec, ok := strings.CutPrefix(name, "synthetic:")
	if !ok {
		return nil, fmt.Errorf("topology: unknown topology %q (want abilene, sprint, or synthetic:<pops>:<edges>:<seed>)", name)
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("topology %q: want synthetic:<pops>:<edges>:<seed>", name)
	}
	n, errN := strconv.Atoi(parts[0])
	edges, errE := strconv.Atoi(parts[1])
	seed, errS := strconv.ParseInt(parts[2], 10, 64)
	if err := errors.Join(errN, errE, errS); err != nil {
		return nil, fmt.Errorf("topology %q: %w", name, err)
	}
	if err := checkSynthetic(n, edges); err != nil {
		return nil, fmt.Errorf("topology %q: %w", name, err)
	}
	return Synthetic(n, edges, seed), nil
}

// Abilene returns the 11-PoP Internet2 backbone of the paper's Figure 2(a).
// The inter-PoP edge set is the 2004 Abilene map (14 physical circuits)
// plus the Chicago--Washington circuit, giving 15 duplex edges = 30
// directed links; with the 11 intra-PoP links the total is 41 links,
// matching Table 1. (The paper's figure draws only the long-haul circuits;
// its stated link count of 41 implies one edge beyond the 14 commonly
// published, which we place on the east-coast redundancy path.)
func Abilene() *Topology {
	b := NewBuilder("Abilene")
	for _, name := range []string{
		"nycm", "chin", "wash", "atla", "ipls", "kscy", "hstn", "dnvr", "losa", "snva", "sttl",
	} {
		b.AddPoP(name)
	}
	b.AddDuplex("sttl", "snva")
	b.AddDuplex("sttl", "dnvr")
	b.AddDuplex("snva", "losa")
	b.AddDuplex("snva", "dnvr")
	b.AddDuplex("losa", "hstn")
	b.AddDuplex("dnvr", "kscy")
	b.AddDuplex("kscy", "hstn")
	b.AddDuplex("kscy", "ipls")
	b.AddDuplex("hstn", "atla")
	b.AddDuplex("ipls", "chin")
	b.AddDuplex("ipls", "atla")
	b.AddDuplex("chin", "nycm")
	b.AddDuplex("atla", "wash")
	b.AddDuplex("wash", "nycm")
	b.AddDuplex("chin", "wash")
	t, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("topology: Abilene preset invalid: %v", err))
	}
	return t
}

// SprintEurope returns a 13-PoP European tier-1 backbone matching the
// paper's Figure 2(b) in node count and Table 1 in link count: 18 duplex
// edges = 36 directed links, plus 13 intra-PoP links = 49. The paper
// anonymizes the PoPs as letters a..m; the precise circuit map is not
// published, so the edge set here is a reconstruction with the same size
// and a realistic backbone structure (a dense core with dual-homed edge
// PoPs) that yields path diversity comparable to the figure.
func SprintEurope() *Topology {
	b := NewBuilder("Sprint-Europe")
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m"}
	for _, n := range names {
		b.AddPoP(n)
	}
	// Core ring d-e-f-g-h with a chord (the figure shows a meshy core).
	b.AddDuplex("d", "e")
	b.AddDuplex("e", "f")
	b.AddDuplex("f", "g")
	b.AddDuplex("g", "h")
	b.AddDuplex("h", "d")
	b.AddDuplex("d", "f")
	// Dual-homed edge PoPs.
	b.AddDuplex("a", "d")
	b.AddDuplex("a", "e")
	b.AddDuplex("b", "d")
	b.AddDuplex("b", "h")
	b.AddDuplex("c", "e")
	b.AddDuplex("c", "f")
	b.AddDuplex("i", "f")
	b.AddDuplex("i", "g")
	b.AddDuplex("j", "g")
	b.AddDuplex("k", "h")
	b.AddDuplex("l", "j")
	// Attach the two most remote PoPs via single-homed tails, as the figure
	// shows for the outermost sites; total duplex edge count is 18.
	t, err := b.AddDuplex("m", "k").Build()
	if err != nil {
		panic(fmt.Sprintf("topology: Sprint-Europe preset invalid: %v", err))
	}
	return t
}

// Synthetic returns a random connected topology with n PoPs named p0..p(n-1).
// It first builds a random spanning tree (guaranteeing connectivity), then
// adds extra duplex edges until reaching the requested duplex edge count.
// Generation is deterministic in seed. It panics if edges < n-1 or exceeds
// the complete-graph bound.
func Synthetic(n, edges int, seed int64) *Topology {
	if err := checkSynthetic(n, edges); err != nil {
		panic("topology: Synthetic: " + err.Error())
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(fmt.Sprintf("synthetic-%d-%d", n, edges))
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("p%d", i)
		b.AddPoP(names[i])
	}
	have := make(map[[2]int]bool)
	addEdge := func(i, j int) bool {
		if i == j {
			return false
		}
		if i > j {
			i, j = j, i
		}
		if have[[2]int{i, j}] {
			return false
		}
		have[[2]int{i, j}] = true
		b.AddDuplex(names[i], names[j])
		return true
	}
	// Random spanning tree: attach each node to a random earlier node.
	perm := rng.Perm(n)
	for k := 1; k < n; k++ {
		addEdge(perm[k], perm[rng.Intn(k)])
	}
	for len(have) < edges {
		addEdge(rng.Intn(n), rng.Intn(n))
	}
	t, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("topology: Synthetic build failed: %v", err))
	}
	return t
}

// checkSynthetic enforces Synthetic's bounds: at least two PoPs, and
// enough edges for a spanning tree but no more than the complete graph.
func checkSynthetic(n, edges int) error {
	if n < 2 {
		return fmt.Errorf("synthetic topology needs at least 2 PoPs, got %d", n)
	}
	if maxEdges := n * (n - 1) / 2; edges < n-1 || edges > maxEdges {
		return fmt.Errorf("synthetic topology on %d PoPs needs %d..%d edges, got %d", n, n-1, maxEdges, edges)
	}
	return nil
}
