package exp

import "testing"

// TestExperimentDigestsGolden pins the per-experiment observability digest
// (events fired, peak queue depth, media traffic, migrations) of a cheap
// figure subset at testScale. Rendered figures only show derived metrics, so
// an engine change that adds, drops or reorders events can leave them intact;
// the event count cannot. A deliberate model change updates these constants.
func TestExperimentDigestsGolden(t *testing.T) {
	want := map[string]string{
		"fig1a":  "events=10003 peak_pending=8 media_r=0 media_w=0 migrations=0",
		"fig6a":  "events=1112240 peak_pending=35 media_r=204028 media_w=0 migrations=0",
		"fig7b":  "events=32899 peak_pending=6 media_r=0 media_w=250 migrations=5",
		"fig9b":  "events=1532608 peak_pending=267 media_r=17854 media_w=30059 migrations=0",
		"fig10b": "events=7280746 peak_pending=267 media_r=373894 media_w=121201 migrations=0",
		"fig13d": "events=10146284 peak_pending=51 media_r=567760 media_w=47664 migrations=626",
	}
	ids := make([]string, 0, len(want))
	for _, id := range IDs() {
		if _, ok := want[id]; ok {
			ids = append(ids, id)
		}
	}
	for _, o := range RunMany(ids, testScale()) {
		if o.Err != nil {
			t.Errorf("%s: %v", o.ID, o.Err)
			continue
		}
		if got := o.Digest.String(); got != want[o.ID] {
			t.Errorf("%s digest:\n got %s\nwant %s", o.ID, got, want[o.ID])
		}
	}
}
