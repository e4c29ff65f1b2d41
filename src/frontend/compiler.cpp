#include "frontend/compiler.h"

#include "frontend/irgen.h"
#include "frontend/mem2reg.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "ir/optimize.h"
#include "ir/verifier.h"

namespace bw::frontend {

std::unique_ptr<ir::Module> compile(std::string_view source,
                                    const CompileOptions& options) {
  std::unique_ptr<Program> program = parse_program(source);
  analyze(*program);
  std::unique_ptr<ir::Module> module = generate_ir(*program);
  promote_allocas_to_ssa(*module);
  if (options.optimize) ir::optimize_module(*module);
  ir::verify_module_or_throw(*module);
  return module;
}

}  // namespace bw::frontend
