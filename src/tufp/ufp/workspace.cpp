#include "tufp/ufp/workspace.hpp"

#include "tufp/ufp/detail/workspace_access.hpp"

namespace tufp {

UfpWorkspace::UfpWorkspace() : impl_(std::make_unique<Impl>()) {}

UfpWorkspace::~UfpWorkspace() = default;

UfpWorkspace::UfpWorkspace(UfpWorkspace&&) noexcept = default;

UfpWorkspace& UfpWorkspace::operator=(UfpWorkspace&&) noexcept = default;

void UfpWorkspace::clear() { impl_ = std::make_unique<Impl>(); }

UfpWorkspace::ReclaimRevalidation UfpWorkspace::revalidate_warm_trees(
    const Graph& base, std::span<const EdgeId> reclaimed,
    std::int64_t clock_after) {
  const SourceTreeCache::ReclaimRevalidation r =
      impl_->trees.revalidate_after_reclaim(base, reclaimed, clock_after);
  return {r.kept, r.dropped};
}

}  // namespace tufp
