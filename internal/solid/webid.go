package solid

import (
	"encoding/hex"

	"repro/internal/rdf"
)

// WebID profile documents. In Solid, an agent's identity is a
// dereferenceable IRI: fetching it yields an RDF document describing the
// agent, including its public key material. ProfileGraph builds such a
// document for a pod to serve; servers resolve agent keys through a
// MapDirectory, never by fetching the document.

// Security vocabulary subset for key publication.
const (
	secPublicKeyHex = "https://w3id.org/security#publicKeyHex"
	foafPersonIRI   = "http://xmlns.com/foaf/0.1/Person"
)

// ProfileGraph renders a minimal WebID profile: the agent is a
// foaf:Person carrying its ECDSA public key as a hex literal.
func ProfileGraph(webID WebID, publicKey []byte) *rdf.Graph {
	g := rdf.NewGraph()
	me := rdf.IRI(string(webID))
	g.Add(rdf.T(me, rdf.IRI(rdf.RDFType), rdf.IRI(foafPersonIRI)))
	g.Add(rdf.T(me, rdf.IRI(secPublicKeyHex), rdf.Literal(hex.EncodeToString(publicKey))))
	return g
}

// ProfileTurtle renders the profile as a Turtle document.
func ProfileTurtle(webID WebID, publicKey []byte) string {
	return rdf.SerializeTurtle(ProfileGraph(webID, publicKey), map[string]string{
		"foaf": "http://xmlns.com/foaf/0.1/",
		"sec":  "https://w3id.org/security#",
	})
}
