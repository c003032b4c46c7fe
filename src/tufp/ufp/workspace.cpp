#include "tufp/ufp/workspace.hpp"

#include "tufp/ufp/detail/workspace_access.hpp"

namespace tufp {

UfpWorkspace::UfpWorkspace() : impl_(std::make_unique<Impl>()) {}

UfpWorkspace::~UfpWorkspace() = default;

UfpWorkspace::UfpWorkspace(UfpWorkspace&&) noexcept = default;

UfpWorkspace& UfpWorkspace::operator=(UfpWorkspace&&) noexcept = default;

void UfpWorkspace::clear() { impl_ = std::make_unique<Impl>(); }

}  // namespace tufp
