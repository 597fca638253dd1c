package solid

import "testing"

// TestFrozenProfileTurtle pins the WebID profile document a pod serves at
// /profile: the agent as a foaf:Person carrying its public key in hex.
func TestFrozenProfileTurtle(t *testing.T) {
	want := `@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix sec: <https://w3id.org/security#> .

<https://alice.pod/profile#me> a foaf:Person ;
    sec:publicKeyHex "0400abcdef" .
`
	if got := ProfileTurtle(aliceID, []byte{0x04, 0x00, 0xab, 0xcd, 0xef}); got != want {
		t.Errorf("profile document:\n%s\nwant:\n%s", got, want)
	}
}
