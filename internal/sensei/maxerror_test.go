package sensei

import "testing"

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

// TestConfigurableMaxError: the configuration validates each maxerror
// attribute, and the bound shapes only the wire request ConfigMaxError
// derives — never the pull plan, which holds arrays alone.
func TestConfigurableMaxError(t *testing.T) {
	ca := NewConfigurableAnalysis(testCtx())
	cfg := `<sensei>
  <analysis type="histogram" array="f" maxerror="1e-3"/>
  <analysis type="histogram" array="g" maxerror="1e-5"/>
</sensei>`
	if err := ca.InitializeXML([]byte(cfg)); err != nil {
		t.Fatal(err)
	}
	if b, ok := ConfigMaxError([]byte(cfg)); !ok || b != 1e-5 {
		t.Fatalf("ConfigMaxError = %v, %v, want 1e-5, true", b, ok)
	}
	if got := ca.Requirements().String(); got != "mesh{f/point,g/point}" {
		t.Fatalf("pull plan = %q, want the two arrays alone", got)
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
