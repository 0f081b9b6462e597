#ifndef MLPROV_STREAM_REPLAY_H_
#define MLPROV_STREAM_REPLAY_H_

/// Replays finished traces through a streaming session. A replay
/// produces exactly the record sequence a live sink attached to the
/// producing simulator observes (ProvenanceFeeder emits the same feed
/// either way), so batch wrappers built on ReplayTrace inherit every
/// streaming guarantee.

#include "common/status.h"
#include "simulator/corpus.h"
#include "stream/session.h"

namespace mlprov::stream {

/// Feeds every record of `trace` into `session` in feed order and
/// returns the session's (sticky) status. The session is left
/// unfinished so callers can keep ingesting or call Finish().
common::Status ReplayTrace(const sim::PipelineTrace& trace,
                           ProvenanceSession& session);

/// Feeds every record of a bare metadata store — e.g. one deserialized
/// from a text corpus file — into `session` through ProvenanceFeeder's
/// walk over the store. Serialized stores carry no span stats or span
/// contexts, so the resulting analysis is byte-identical to the
/// zero-copy binary feed (BinaryStoreCursor + Ingest(RecordRef)) over
/// the same corpus.
common::Status ReplayStore(const metadata::MetadataStore& store,
                           ProvenanceSession& session);

}  // namespace mlprov::stream

#endif  // MLPROV_STREAM_REPLAY_H_
