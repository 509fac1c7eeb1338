// Package federation implements the subscription protocol between instances
// — the ActivityPub-style layer (§2) that lets a user on one instance follow
// a user on another. It defines the wire activities, the per-instance
// subscription table, and the in-process transport they ride.
//
// The protocol is a faithful miniature of the Mastodon/Pleroma flow:
//
//	follower's instance --Follow--> author's instance   (subscribe)
//	author's instance   --Create--> subscriber inboxes  (push toots)
//	follower's instance --Undo-->   author's instance   (unsubscribe)
package federation

import "repro/internal/wire"

// The wire shapes (and their hand-rolled codecs) live in internal/wire so
// the instance server and the crawler can share them without importing the
// protocol layer; the aliases below keep this package the canonical name.

// ActivityType enumerates the wire activity kinds.
type ActivityType = wire.ActivityType

// The supported activity kinds.
const (
	TypeFollow ActivityType = "Follow"
	TypeUndo   ActivityType = "Undo"
	TypeCreate ActivityType = "Create"
	TypeBoost  ActivityType = "Announce"
)

// Actor identifies an account as user@domain.
type Actor = wire.Actor

// Note is the content payload of a Create activity (a toot on the wire).
type Note = wire.Note

// Activity is the federation envelope. Encode and Validate are declared on
// the wire type, and so is the decoder, wire.UnmarshalActivity.
type Activity = wire.Activity
