// One-call BW-C compiler entry point: source text -> verified SSA module.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "ir/module.h"
#include "support/diagnostics.h"  // compile() throws CompileError

namespace bw::frontend {

struct CompileOptions {
  /// Run constant folding + DCE after SSA construction (semantics
  /// preserving; folding matches the VM bit-for-bit).
  bool optimize = false;
};

/// Compile BW-C source to SSA-form IR module "bwc": parse -> sema -> irgen
/// -> mem2reg -> verify. Throws bw::support::CompileError on any front-end
/// error.
std::unique_ptr<ir::Module> compile(std::string_view source,
                                    const CompileOptions& options = {});

}  // namespace bw::frontend
