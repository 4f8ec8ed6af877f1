// A compatibility shim.  StreamPairedFastqToSam still takes a
// PipelineConfig and bench/e2e still reads these two fields, so the type
// stays until the next benchmark change; no code reads them.  The mapping
// drivers run chunk workers on the ReadMapper's pool instead
// (pipeline/ordered_chunks.hpp).
#ifndef GKGPU_PIPELINE_PIPELINE_HPP
#define GKGPU_PIPELINE_PIPELINE_HPP

namespace gkgpu::pipeline {

struct PipelineConfig {
  int encode_workers = 2;
  int verify_workers = 2;
};

}  // namespace gkgpu::pipeline

#endif  // GKGPU_PIPELINE_PIPELINE_HPP
