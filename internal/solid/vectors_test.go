package solid

import (
	"encoding/hex"
	"testing"
	"time"
)

// TestFrozenPodRecordEncoding holds the pod op-log and snapshot encodings
// to the bytes they first printed: a pod dir written by one binary must
// open under the next. The put's time carries a zone (UTC+5:45) and is
// written as its UTC instant.
func TestFrozenPodRecordEncoding(t *testing.T) {
	at := time.Date(2023, 10, 9, 5, 45, 0, 123_456_789, time.FixedZone("", 5*3600+45*60))
	acl := NewACL(persistOwner, "/data/")
	acl.Grant("reader", []WebID{persistReader, "https://b.example/#me"}, "/data/a.txt", false, ModeRead, ModeAppend)
	acl.GrantPublic("public", "/data/pub/", true, ModeRead)
	ops := []podOp{
		{Kind: podOpPut, Path: "/data/a.txt", ContentType: "text/plain", Data: []byte("alice\x00"), Modified: at, PostSeq: 2},
		{Kind: podOpDel, Path: "/data/a.txt", PostSeq: 300},
		{Kind: podOpACL, Path: "/data/", ACL: acl},
	}
	want := []string{
		"13010b2f646174612f612e7478740a746578742f706c61696e06616c696365000f010000000edcb53980075bcd15ffff02",
		"13020b2f646174612f612e747874ac02",
		"1303062f646174612f03056f776e6572012068747470733a2f2f616c6963652e6578616d706c652f70726f66696c65236d6500062f646174612f0103045265616405577269746507436f6e74726f6c06726561646572022168747470733a2f2f7265616465722e6578616d706c652f70726f66696c65236d651568747470733a2f2f622e6578616d706c652f236d65000b2f646174612f612e7478740002045265616406417070656e64067075626c696300010a2f646174612f7075622f0101045265616400",
	}
	for i, op := range ops {
		if got := hex.EncodeToString(encodePodOp(&op)); got != want[i] {
			t.Errorf("op %d:\n got %s\nwant %s", i, got, want[i])
		}
	}

	snap := &podSnapshot{
		Ops: 9, PostSeq: 2, ACLGen: 300,
		Resources: []*Resource{
			{Path: "/z.bin", ContentType: "application/octet-stream", Data: []byte{0, 0xff}, Modified: at},
			{Path: "/a.txt", ContentType: "text/plain", Data: []byte("hi")},
		},
		ACLs: map[string]*ACL{"/data/": acl, "/": {}},
	}
	const wantSnap = "140902ac0202062f612e7478740a746578742f706c61696e0268690f01000000000000000000000000ffff062f7a2e62696e186170706c69636174696f6e2f6f637465742d73747265616d0200ff0f010000000edcb53980075bcd15ffff02012f00062f646174612f03056f776e6572012068747470733a2f2f616c6963652e6578616d706c652f70726f66696c65236d6500062f646174612f0103045265616405577269746507436f6e74726f6c06726561646572022168747470733a2f2f7265616465722e6578616d706c652f70726f66696c65236d651568747470733a2f2f622e6578616d706c652f236d65000b2f646174612f612e7478740002045265616406417070656e64067075626c696300010a2f646174612f7075622f01010452656164"
	if got := hex.EncodeToString(encodePodSnapshot(snap)); got != wantSnap {
		t.Errorf("snapshot:\n got %s\nwant %s", got, wantSnap)
	}
}
