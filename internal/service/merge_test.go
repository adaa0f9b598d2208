package service

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"kset"
	"kset/internal/shard"
)

// mergeFixture runs one small campaign unsharded (the baseline) and K
// ways sharded, returning the baseline stats and the shard results.
func mergeFixture(t *testing.T, k int) (*kset.CampaignStats, []*kset.CampaignStats) {
	t.Helper()
	p := kset.Params{N: 4, T: 2, K: 2, D: 1, L: 1}
	cond, err := kset.NewMaxCondition(p.N, 3, p.X(), p.L)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := kset.New(kset.WithParams(p), kset.WithCondition(cond))
	if err != nil {
		t.Fatal(err)
	}
	src := kset.CrossExecutors(kset.ExhaustiveInputs(p.N, 3), kset.Figure2, kset.EarlyDeciding)
	base, err := sys.RunSource(context.Background(), src, kset.VerifyRuns())
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*kset.CampaignStats, k)
	for i := 0; i < k; i++ {
		sh, err := kset.ShardSource(src, i, k)
		if err != nil {
			t.Fatal(err)
		}
		if shards[i], err = sys.RunSource(context.Background(), sh, kset.VerifyRuns()); err != nil {
			t.Fatal(err)
		}
	}
	return base, shards
}

// mergeResponse decodes /v1/merge's reply.
type mergeResponse struct {
	Shards int                 `json:"shards"`
	Stats  *kset.CampaignStats `json:"stats"`
}

// TestMergeFoldsShardsByteIdentical is the endpoint's core contract:
// uploading K shard results — in every accepted shape at once — folds to
// stats byte-identical to the single-process run over the whole stream.
func TestMergeFoldsShardsByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base, shards := mergeFixture(t, 3)
	want, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}

	// Shard 0 uploads its raw accumulator, shard 1 its full stats report,
	// shard 2 a checkpoint envelope — the three shapes workers hold.
	accJSON, err := json.Marshal(shards[0].Metrics)
	if err != nil {
		t.Fatal(err)
	}
	reportJSON, err := json.Marshal(shards[1])
	if err != nil {
		t.Fatal(err)
	}
	cpJSON, err := shard.Checkpoint{
		Version:  shard.Version,
		Cursor:   shard.Cursor{Lo: 0, Hi: shards[2].Runs},
		RunsDone: shards[2].Runs,
		Stats:    shards[2].Metrics,
	}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string][]json.RawMessage{
		"shards": {accJSON, reportJSON, cpJSON},
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, data := post(t, ts.URL+"/v1/merge", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/merge = %d: %s", resp.StatusCode, data)
	}
	var out mergeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Shards != 3 {
		t.Fatalf("shards = %d, want 3", out.Shards)
	}
	got, err := json.Marshal(out.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("merged stats differ from single-process run\n%s\nvs\n%s", got, want)
	}
}

// TestMergeSingleShardIdentity: merging one upload is the identity.
func TestMergeSingleShardIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base, _ := mergeFixture(t, 1)
	accJSON, err := json.Marshal(base.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := post(t, ts.URL+"/v1/merge", `{"shards":[`+string(accJSON)+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/merge = %d: %s", resp.StatusCode, data)
	}
	var out mergeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(out.Stats)
	want, _ := json.Marshal(base)
	if string(got) != string(want) {
		t.Fatalf("identity merge differs\n%s\nvs\n%s", got, want)
	}
}

// TestMergeValidation is the endpoint's vector table: GET is a 405, and
// every body of testdata/merge_v1.json is merged or refused with a
// structured 400 carrying its code.
func TestMergeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get, err := http.Get(ts.URL + "/v1/merge")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/merge = %d, want 405", get.StatusCode)
	}
	for _, tc := range loadMergeVectors(t) {
		t.Run(tc.Name, func(t *testing.T) {
			resp, data := post(t, ts.URL+"/v1/merge", tc.Body)
			if tc.Code == "" {
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d, want 200: %s", resp.StatusCode, data)
				}
				return
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
			}
			var body struct {
				Error errorBody `json:"error"`
			}
			if err := json.Unmarshal(data, &body); err != nil {
				t.Fatal(err)
			}
			if body.Error.Code != tc.Code {
				t.Fatalf("code %q, want %q", body.Error.Code, tc.Code)
			}
		})
	}
}
