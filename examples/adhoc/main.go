// Command adhoc replays the paper's Figure-7 scenario on a self-adaptive
// SON: P1 knows only its neighbors P2 and P3 (both covering Q1) and
// nobody for Q2, so its partial plan has a hole; P1 forwards the query
// pattern to P2, which knows P5 and completes the annotation, and P1
// executes the completed plan over channels to P2, P3 and P5. The
// example then shows k-depth neighborhood expansion and adaptation to a
// peer failure.
package main

import (
	"fmt"
	"log"

	"sqpeer"
)

const n1NS = "http://ics.forth.gr/SON/n1#"

func n1(local string) sqpeer.IRI { return sqpeer.IRI(n1NS + local) }

func y(i int) sqpeer.IRI {
	return sqpeer.IRI(fmt.Sprintf("http://ics.forth.gr/data/shared#y%d", i))
}

func prop1Base(peerName string, n int) *sqpeer.Base {
	b := sqpeer.NewBase()
	for i := 0; i < n; i++ {
		x := sqpeer.IRI(fmt.Sprintf("http://d/%s#x%d", peerName, i))
		b.Add(sqpeer.Statement(x, n1("prop1"), y(i)))
		b.Add(sqpeer.Typing(x, n1("C1")))
	}
	return b
}

func prop2Base(peerName string, n int) *sqpeer.Base {
	b := sqpeer.NewBase()
	for i := 0; i < n; i++ {
		z := sqpeer.IRI(fmt.Sprintf("http://d/%s#z%d", peerName, i))
		b.Add(sqpeer.Statement(y(i), n1("prop2"), z))
		b.Add(sqpeer.Typing(z, n1("C3")))
	}
	return b
}

func main() {
	schema := sqpeer.PaperSchema()
	net := sqpeer.NewNetwork()
	son := sqpeer.NewAdhocSON(net, schema)

	// Topology of Figure 7: P1 – {P2, P3}, P2 – P5.
	mustAdd(son, "P1", sqpeer.NewBase())
	mustAdd(son, "P2", prop1Base("P2", 3), "P1")
	mustAdd(son, "P3", prop1Base("P3", 3), "P1")
	mustAdd(son, "P5", prop2Base("P5", 3), "P2")

	p1, _ := son.Peer("P1")
	ann := p1.Router.Route(sqpeer.PaperQuery())
	fmt.Println("P1's local routing knowledge (depth-1 neighborhood):")
	fmt.Println(" ", ann)
	partial, err := sqpeer.GeneratePlan(ann)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("partial plan with hole (Figure 7a):")
	fmt.Println(" ", partial)

	fmt.Println("\nforwarding through the SON (interleaved routing/processing)…")
	res, err := son.Query("P1", sqpeer.PaperRQL, sqpeer.DefaultTTL)
	if err != nil {
		log.Fatalf("query: %v", err)
	}
	fmt.Printf("answer at P1 (plan completed by P2, executed by P1), complete=%t:\n", res.Completeness.Complete)
	fmt.Print(res.Rows)

	// Alternative: P1 expands its neighborhood to depth 2, learns P5's
	// advertisement, and can then route the query entirely by itself.
	learned, err := son.ExpandNeighborhood("P1", 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter 2-depth expansion P1 learned %d advertisement(s):\n", learned)
	ann2 := p1.Router.Route(sqpeer.PaperQuery())
	fmt.Println(" ", ann2)

	// Figure 7's failed channel: P3 dies; the query still completes with
	// P2's data only.
	net.Fail("P3")
	fmt.Println("\nP3 failed; re-asking the query:")
	res2, err := son.Query("P1", sqpeer.PaperRQL, sqpeer.DefaultTTL)
	if err != nil {
		log.Fatalf("query after failure: %v", err)
	}
	fmt.Print(res2.Rows)
}

func mustAdd(son *sqpeer.AdhocSON, id sqpeer.PeerID, base *sqpeer.Base, neighbors ...sqpeer.PeerID) {
	if _, err := son.AddPeer(id, base, neighbors...); err != nil {
		log.Fatalf("add %s: %v", id, err)
	}
}
