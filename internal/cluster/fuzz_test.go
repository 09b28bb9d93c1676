package cluster

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// FuzzAffinityAddress feeds arbitrary submission bodies to the gateway's
// router key: it must never panic, and an address it vouches for is a
// 64-character lowercase hex SHA-256.
func FuzzAffinityAddress(f *testing.F) {
	for _, seed := range []struct{ kind, body string }{
		{"train", `{"model":"lenet5s","strategy":"LinearFDA"}`},
		{"train", `{"strategy":"LinearFDA","seed":1,"model":"lenet5s","tau":10}`},
		{"train", `{"model":"vgg16s","strategy":"FedAdam","theta":0.25,"k":3,"het":"dir0.5","distributed":true}`},
		{"train", `{"model":"lenet5s","strategy":"LinearFDA","topk":0.5,"qbits":8}`},
		{"train", `{"model":"nope","strategy":"Nope","k":-2,"theta":-1e308}`},
		{"train", `not json`},
		{"sweep", `{"experiment":"fig3"}`},
		{"sweep", `{"experiment":"fig3","scale":"quick","seed":1}`},
		{"other", `{"model":"lenet5s","strategy":"LinearFDA"}`},
	} {
		f.Add(seed.kind, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, kind string, body []byte) {
		addr, ok := AffinityAddress(kind, body)
		if !ok {
			if addr != "" {
				t.Fatalf("no affinity but address %q", addr)
			}
			return
		}
		if raw, err := hex.DecodeString(addr); err != nil || len(addr) != 64 || hex.EncodeToString(raw) != addr {
			t.Fatalf("address %q is not 64 lowercase hex characters", addr)
		}
	})
}

// FuzzRewriteID feeds arbitrary response bodies to the gateway's id
// rewriter: it must never panic, a body that is not a JSON object
// passes through unchanged, and in an object every field other than id
// keeps its value bytes exactly.
func FuzzRewriteID(f *testing.F) {
	for _, body := range []string{
		`{"accuracy":0.9000000000000001,"id":"r3","loss":1e-7,"nested":{"z":1,"a":2}}`,
		`[1,2,3]`,
		`{"id":7}`,
		`plain`,
		`{ "id" : "r1" , "error" : "a <b> & c", "v": [ 1, 2 ] }` + "\n",
		`{"id":"r1","id":"r2"}`,
		`{"id":""}`,
	} {
		f.Add([]byte(body), "abc123")
	}
	f.Fuzz(func(t *testing.T, body []byte, prefix string) {
		out := rewriteID(body, prefix)
		var in map[string]json.RawMessage
		if json.Unmarshal(body, &in) != nil {
			if !bytes.Equal(out, body) {
				t.Fatalf("non-object body %q rewritten to %q", body, out)
			}
			return
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatalf("rewriteID(%q) = %q does not decode: %v", body, out, err)
		}
		if len(got) != len(in) {
			t.Fatalf("rewriteID(%q) = %q changed the field set", body, out)
		}
		for k, v := range in {
			if k != "id" && !bytes.Equal(got[k], v) {
				t.Fatalf("field %q: %s became %s", k, v, got[k])
			}
		}
		var id string
		if json.Unmarshal(in["id"], &id) != nil || id == "" {
			if !bytes.Equal(out, body) {
				t.Fatalf("body without a string id %q rewritten to %q", body, out)
			}
			return
		}
		if want, _ := json.Marshal(prefix + "-" + id); !bytes.Equal(got["id"], want) {
			t.Fatalf("id %s, want %s", got["id"], want)
		}
	})
}
