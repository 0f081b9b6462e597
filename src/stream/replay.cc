#include "stream/replay.h"

#include "simulator/provenance_sink.h"

namespace mlprov::stream {

common::Status ReplayTrace(const sim::PipelineTrace& trace,
                           ProvenanceSession& session) {
  sim::ProvenanceFeeder feeder(&session);
  feeder.Finish(trace);
  return session.status();
}

common::Status ReplayStore(const metadata::MetadataStore& store,
                           ProvenanceSession& session) {
  sim::ProvenanceFeeder feeder(&session);
  feeder.Finish(store);
  return session.status();
}

}  // namespace mlprov::stream
