#include "am/machine_factory.hpp"

#include "am/mn_machine.hpp"
#include "am/sim_machine.hpp"

namespace hal::am {

std::unique_ptr<Machine> make_machine(const RuntimeConfig& config) {
  switch (config.machine) {
    case MachineKind::kSim: {
      auto sim = std::make_unique<SimMachine>(config.nodes, config.costs);
      if (config.sim_event_limit != 0) {
        sim->set_event_limit(config.sim_event_limit);
      }
      return sim;
    }
    case MachineKind::kMn:
      return std::make_unique<MnMachine>(config.nodes, config.costs,
                                         config.mn_workers);
  }
  HAL_PANIC("make_machine: unknown MachineKind");
}

}  // namespace hal::am
