package sensei

import (
	"math"
	"testing"
)

func TestWithMaxError(t *testing.T) {
	r := RequireArrays("mesh", AssocPoint, "f")
	if _, ok := r.MaxError(); ok {
		t.Fatal("fresh requirements must be lossless")
	}
	r2 := r.WithMaxError(1e-3)
	if b, ok := r2.MaxError(); !ok || b != 1e-3 {
		t.Fatalf("MaxError = %v, %v, want 1e-3, true", b, ok)
	}
	if _, ok := r.MaxError(); ok {
		t.Fatal("WithMaxError mutated its receiver")
	}
	// Non-positive or non-finite bounds clear back to lossless.
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, ok := r2.WithMaxError(bad).MaxError(); ok {
			t.Errorf("WithMaxError(%v) left a bound set", bad)
		}
	}
}

func TestUnionMaxError(t *testing.T) {
	loose := RequireArrays("mesh", AssocPoint, "f").WithMaxError(1e-2)
	tight := RequireArrays("mesh", AssocPoint, "g").WithMaxError(1e-5)
	lossless := RequireArrays("mesh", AssocPoint, "h")

	if b, ok := loose.Union(tight).MaxError(); !ok || b != 1e-5 {
		t.Errorf("both set: got %v, %v, want the strict minimum 1e-5", b, ok)
	}
	if b, ok := tight.Union(loose).MaxError(); !ok || b != 1e-5 {
		t.Errorf("union not symmetric: got %v, %v", b, ok)
	}
	// One lossless party forces the union lossless: the wire cannot
	// quantize data some consumer needs exact.
	if _, ok := loose.Union(lossless).MaxError(); ok {
		t.Error("union with a lossless analysis kept a bound")
	}
	if _, ok := lossless.Union(loose).MaxError(); ok {
		t.Error("union with a lossless analysis kept a bound (reversed)")
	}
	if _, ok := lossless.Union(lossless).MaxError(); ok {
		t.Error("two lossless analyses unioned to lossy")
	}
}

func TestConfigMaxError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		doc   string
		bound float64
		ok    bool
	}{
		{
			name: "every analysis declares: min wins",
			doc: `<sensei>
  <analysis type="histogram" array="f" maxerror="1e-3"/>
  <analysis type="histogram" array="g" maxerror="1e-6"/>
</sensei>`,
			bound: 1e-6, ok: true,
		},
		{
			name: "one lossless analysis vetoes",
			doc: `<sensei>
  <analysis type="histogram" array="f" maxerror="1e-3"/>
  <analysis type="histogram" array="g"/>
</sensei>`,
		},
		{
			name: "disabled analyses do not count",
			doc: `<sensei>
  <analysis type="histogram" array="f" maxerror="1e-3"/>
  <analysis type="histogram" array="g" enabled="0"/>
</sensei>`,
			bound: 1e-3, ok: true,
		},
		{name: "empty config tolerates nothing", doc: `<sensei/>`},
		{name: "unparsable config", doc: `<nonsense`},
		{
			name: "bad bound",
			doc:  `<sensei><analysis type="histogram" array="f" maxerror="-2"/></sensei>`,
		},
		{
			name: "infinite bound",
			doc:  `<sensei><analysis type="histogram" array="f" maxerror="1e999"/></sensei>`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, ok := ConfigMaxError([]byte(tc.doc))
			if ok != tc.ok || b != tc.bound {
				t.Errorf("ConfigMaxError = %v, %v, want %v, %v", b, ok, tc.bound, tc.ok)
			}
		})
	}
}

// TestConfigurableMaxError checks the instantiated planner agrees with
// the XML-only derivation, including the path ConfigMaxError cannot
// see: an analysis added in code that declares no tolerance must veto
// lossy transport.
func TestConfigurableMaxError(t *testing.T) {
	ca := NewConfigurableAnalysis(testCtx())
	cfg := `<sensei>
  <analysis type="histogram" array="f" maxerror="1e-3"/>
  <analysis type="histogram" array="g" maxerror="1e-5"/>
</sensei>`
	if err := ca.InitializeXML([]byte(cfg)); err != nil {
		t.Fatal(err)
	}
	if b, ok := ca.MaxError(); !ok || b != 1e-5 {
		t.Fatalf("MaxError = %v, %v, want 1e-5, true", b, ok)
	}
	ca.AddAnalysis("tracker", 1, &stepTracker{})
	if _, ok := ca.MaxError(); ok {
		t.Fatal("a lossless analysis did not veto the error bound")
	}

	// A bad maxerror attribute fails configuration outright.
	bad := NewConfigurableAnalysis(testCtx())
	if err := bad.InitializeXML([]byte(
		`<sensei><analysis type="histogram" array="f" maxerror="tiny"/></sensei>`)); err == nil {
		t.Fatal("bad maxerror accepted")
	}
	if err := bad.InitializeXML([]byte(
		`<sensei><analysis type="histogram" array="f" maxerror="0"/></sensei>`)); err == nil {
		t.Fatal("zero maxerror accepted")
	}
}
