package sensei_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/sensei"

	_ "nekrs-sensei/internal/catalyst"   // analysis type "catalyst"
	_ "nekrs-sensei/internal/checkpoint" // analysis type "checkpoint"
	_ "nekrs-sensei/internal/probe"      // analysis type "probe"
	_ "nekrs-sensei/internal/staging"    // analysis types "staging" and "adios"
)

// TestMisspeltAttributeFails: every in-tree analysis type refuses an
// attribute it does not read, naming the type and the attribute, so
// `<analysis type="histogram" array="pressure" bin="16"/>` fails instead
// of running with 10 bins. Each element is otherwise valid. A catalyst
// pipeline kind other than the XML script is refused by name too.
func TestMisspeltAttributeFails(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "slice.xml")
	if err := os.WriteFile(script, []byte(`<catalyst>
  <image width="8" height="8" output="slice_%06d.png" field="pressure">
    <slice normal="0,0,1" offset="0.5"/>
  </image>
</catalyst>`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ typ, attrs, misspelt string }{
		{"histogram", `array="pressure" bin="16"`, "bin"},
		{"autocorrelation", `array="pressure" windw="3"`, "windw"},
		{"probe", `arrays="pressure" points="0.5,0.5,0.5" ouput="p.csv"`, "ouput"},
		{"checkpoint", `arrays="pressure" prefx="ck"`, "prefx"},
		{"catalyst", fmt.Sprintf(`pipeline="script" filename=%q mesh_name="mesh"`, script), "mesh_name"},
		{"catalyst", fmt.Sprintf(`pipeline="pythonscript" filename=%q`, script), "pythonscript"},
		{"staging", `consumers="hist:block:2" contct="c.txt"`, "contct"},
		{"adios", `queue="2" arrray="pressure"`, "arrray"},
	} {
		t.Run(tc.typ, func(t *testing.T) {
			ctx := &sensei.Context{
				Comm: mpirt.NewWorld(1).Comm(0), Acct: metrics.NewAccountant(),
				Timer: metrics.NewTimer(), Storage: metrics.NewStorageCounter(),
				OutputDir: dir,
			}
			ca := sensei.NewConfigurableAnalysis(ctx)
			err := ca.InitializeXML([]byte(fmt.Sprintf(`<sensei><analysis type=%q frequency="2" %s/></sensei>`, tc.typ, tc.attrs)))
			if err == nil {
				ca.Finalize() //nolint:errcheck // the configuration should not have loaded
				t.Fatalf("%s with %s= loaded", tc.typ, tc.misspelt)
			}
			for _, want := range []string{fmt.Sprintf("%q", tc.typ), fmt.Sprintf("%q", tc.misspelt)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("err = %v, want it to name %s", err, want)
				}
			}
		})
	}
}
