package xmark

import (
	"strings"
	"testing"

	"repro/internal/xmltree"
)

func gen(t *testing.T, factor float64) *xmltree.Fragment {
	t.Helper()
	f := Generate(Config{Factor: factor})
	if err := xmltree.Validate(f); err != nil {
		t.Fatalf("invalid fragment: %v", err)
	}
	return f
}

// findPath descends from the document root along child element names.
func findPath(f *xmltree.Fragment, names ...string) []int32 {
	ctx := []int32{0}
	for _, name := range names {
		var next []int32
		for _, v := range ctx {
			for _, c := range f.Children(v) {
				if f.Kind[c] == xmltree.KindElem && f.NodeName(c) == name {
					next = append(next, c)
				}
			}
		}
		ctx = next
	}
	return ctx
}

func TestSchemaShape(t *testing.T) {
	f := gen(t, 0.002)
	c := CountsFor(0.002)
	if got := len(findPath(f, "site")); got != 1 {
		t.Fatalf("sites = %d", got)
	}
	if got := len(findPath(f, "site", "people", "person")); got != c.Persons {
		t.Errorf("persons = %d, want %d", got, c.Persons)
	}
	if got := len(findPath(f, "site", "open_auctions", "open_auction")); got != c.OpenAuctions {
		t.Errorf("open auctions = %d, want %d", got, c.OpenAuctions)
	}
	if got := len(findPath(f, "site", "closed_auctions", "closed_auction")); got != c.ClosedAuctions {
		t.Errorf("closed auctions = %d, want %d", got, c.ClosedAuctions)
	}
	if got := len(findPath(f, "site", "regions", "europe", "item")); got != c.ItemsEurope {
		t.Errorf("europe items = %d, want %d", got, c.ItemsEurope)
	}
	if got := len(findPath(f, "site", "categories", "category")); got != c.Categories {
		t.Errorf("categories = %d, want %d", got, c.Categories)
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(Config{Factor: 0.001})
	b := Generate(Config{Factor: 0.001})
	sa := xmltree.SerializeToString(a, 0, xmltree.SerializeOptions{})
	sb := xmltree.SerializeToString(b, 0, xmltree.SerializeOptions{})
	if sa != sb {
		t.Fatal("same config produced different documents")
	}
	c := Generate(Config{Factor: 0.001, Seed: 7})
	sc := xmltree.SerializeToString(c, 0, xmltree.SerializeOptions{})
	if sa == sc {
		t.Fatal("different seeds produced identical documents")
	}
}

func TestPersonFields(t *testing.T) {
	f := gen(t, 0.01)
	persons := findPath(f, "site", "people", "person")
	var withProfile, withIncome, withHomepage, withoutHomepage int
	for _, p := range persons {
		attrs := f.Attributes(p)
		if len(attrs) == 0 || f.NodeName(attrs[0]) != "id" {
			t.Fatalf("person %d lacks id attribute", p)
		}
		hasHome := false
		for _, c := range f.Children(p) {
			switch f.NodeName(c) {
			case "profile":
				withProfile++
				for _, a := range f.Attributes(c) {
					if f.NodeName(a) == "income" {
						withIncome++
					}
				}
			case "homepage":
				hasHome = true
			}
		}
		if hasHome {
			withHomepage++
		} else {
			withoutHomepage++
		}
	}
	n := len(persons)
	if withProfile == 0 || withProfile == n {
		t.Errorf("profiles = %d of %d; want a proper subset", withProfile, n)
	}
	if withIncome == 0 || withIncome == withProfile {
		t.Errorf("incomes = %d of %d profiles; want a proper subset (Q20 'na' bucket)", withIncome, withProfile)
	}
	if withHomepage == 0 || withoutHomepage == 0 {
		t.Errorf("homepages = %d/%d; Q17 needs both kinds", withHomepage, withoutHomepage)
	}
}

func TestQ15PathExists(t *testing.T) {
	f := gen(t, 0.02)
	hits := findPath(f, "site", "closed_auctions", "closed_auction",
		"annotation", "description", "parlist", "listitem", "parlist",
		"listitem", "text", "emph", "keyword")
	if len(hits) == 0 {
		t.Error("Q15 path has no witnesses; deepen annotation generation")
	}
}

func TestGoldAppearsInDescriptions(t *testing.T) {
	f := gen(t, 0.01)
	items := findPath(f, "site", "regions", "namerica", "item")
	hits := 0
	for _, it := range items {
		for _, c := range f.Children(it) {
			if f.NodeName(c) == "description" &&
				strings.Contains(f.StringValue(c), "gold") {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Error("no 'gold' descriptions; Q14 would select nothing")
	}
	if hits == len(items) {
		t.Error("every description contains 'gold'; Q14 would select everything")
	}
}

func TestBidderIncreaseNumeric(t *testing.T) {
	f := gen(t, 0.01)
	auctions := findPath(f, "site", "open_auctions", "open_auction")
	withBidders := 0
	for _, a := range auctions {
		for _, c := range f.Children(a) {
			if f.NodeName(c) == "bidder" {
				withBidders++
				break
			}
		}
	}
	if withBidders == 0 || withBidders == len(auctions) {
		t.Errorf("auctions with bidders = %d of %d; Q2/Q3 need a proper subset", withBidders, len(auctions))
	}
}

func TestWriteXMLParsesBack(t *testing.T) {
	var sb strings.Builder
	if err := WriteXML(&sb, Config{Factor: 0.001}); err != nil {
		t.Fatal(err)
	}
	f, err := xmltree.ParseString(sb.String(), "auction.xml", xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	direct := Generate(Config{Factor: 0.001})
	// Text-round-tripped and directly built fragments must agree node for node.
	if f.Len() != direct.Len() {
		t.Fatalf("round trip: %d nodes vs %d direct", f.Len(), direct.Len())
	}
	for i := int32(0); i < int32(f.Len()); i++ {
		if f.Kind[i] != direct.Kind[i] || f.NodeName(i) != direct.NodeName(i) || f.Value[i] != direct.Value[i] {
			t.Fatalf("node %d differs: %v %q %q vs %v %q %q",
				i, f.Kind[i], f.NodeName(i), f.Value[i], direct.Kind[i], direct.NodeName(i), direct.Value[i])
		}
	}
}

func TestSizeCalibration(t *testing.T) {
	var sb strings.Builder
	if err := WriteXML(&sb, Config{Factor: 0.01}); err != nil {
		t.Fatal(err)
	}
	got := int64(sb.Len())
	want := int64(0.01 * ApproxBytesPerFactor)
	// Within a factor of two of the documented constant.
	if got < want/2 || got > want*2 {
		t.Errorf("factor 0.01 serialized to %d bytes; ApproxBytesPerFactor (%d) is off", got, ApproxBytesPerFactor)
	}
}

func TestCountsForMinimums(t *testing.T) {
	c := CountsFor(0)
	if c.Persons == 0 || c.OpenAuctions == 0 || c.ClosedAuctions == 0 ||
		c.Categories == 0 || c.TotalItems() == 0 {
		t.Errorf("zero factor must keep every entity class non-empty: %+v", c)
	}
}
