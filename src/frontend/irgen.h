// IR generation: lowers the sema-annotated AST into alloca-form IR
// (every local variable is a stack slot; mem2reg promotes to SSA next).
#pragma once

#include <memory>

#include "frontend/ast.h"
#include "ir/module.h"

namespace bw::frontend {

/// Lower an analyzed program to IR. The returned module is in alloca form:
/// run promote_allocas_to_ssa() (mem2reg.h) before any SSA-dependent pass.
/// The module is named "bwc".
std::unique_ptr<ir::Module> generate_ir(const Program& program);

}  // namespace bw::frontend
