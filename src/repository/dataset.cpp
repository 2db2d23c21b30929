#include "repository/dataset.h"

namespace fgp::repository {

void ChunkedDataset::add_chunk(Chunk c) {
  total_virtual_bytes_ += c.virtual_bytes();
  total_real_bytes_ += c.real_bytes();
  chunks_.push_back(std::move(c));
}

void ChunkedDataset::set_uniform_virtual_scale(double virtual_scale) {
  total_virtual_bytes_ = 0.0;
  for (auto& c : chunks_) {
    c.set_virtual_scale(virtual_scale);
    total_virtual_bytes_ += c.virtual_bytes();
  }
}

bool ChunkedDataset::verify_all() const {
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const Chunk& c = chunks_[i];
    if (!c.loaded() && source_ != nullptr)
      (void)materialize(i);  // the fetch verifies, or throws
    else if (!c.verify())
      return false;
  }
  return true;
}

Chunk ChunkedDataset::materialize(std::size_t i) const {
  const Chunk& c = chunks_.at(i);
  if (c.loaded() || source_ == nullptr) return c;
  Chunk fetched = source_->fetch(i);
  // A dataset rescaled in place keeps its metadata at the new scale; the
  // source serves the stored scale, so rebind (metadata-only — payload
  // untouched).
  if (fetched.virtual_scale() != c.virtual_scale())
    fetched.set_virtual_scale(c.virtual_scale());
  return fetched;
}

}  // namespace fgp::repository
