#include "sim/sim_object.hh"

#include <utility>

#include "sim/logging.hh"

namespace vstream
{

SimObject::SimObject(std::string name, EventQueue *queue)
    : name_(std::move(name)), queue_(queue)
{
    vs_assert(!name_.empty(), "SimObject requires a name");
}

SimObject::~SimObject() = default;

} // namespace vstream
